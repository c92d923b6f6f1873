package dynopt

import (
	"reflect"
	"testing"

	"smarq/internal/alias"
	"smarq/internal/guest"
	"smarq/internal/workload"
)

// TestMemoKeyZeroAllocs pins content-hash key construction at zero heap
// allocations: memoKey runs on the dispatch path at every enqueue, so the
// sorted blacklist/pin encodings must reuse the System's buffers, not
// fresh slices. The blacklist and pin sets are deliberately nonempty —
// the sorted encodings are the only part of the fold that ever allocated.
func TestMemoKeyZeroAllocs(t *testing.T) {
	sys := New(aliasingProgram(800, 7), &guest.State{}, guest.NewMemory(1<<16), ConfigSMARQ(64))
	if _, err := sys.Run(40_000); err != nil {
		t.Fatal(err)
	}
	entry := -1
	for e := range sys.sbCache {
		entry = e
		break
	}
	if entry < 0 {
		t.Fatal("run formed no superblocks")
	}
	in, err := sys.newCompileInput(entry)
	if err != nil {
		t.Fatal(err)
	}
	in.blacklist = alias.Blacklist{
		alias.MakePair(3, 1): true,
		alias.MakePair(2, 5): true,
		alias.MakePair(0, 4): true,
	}
	in.scfg.PinnedOps = map[int]bool{9: true, 2: true, 5: true}

	want := sys.memoKey(in)
	allocs := testing.AllocsPerRun(200, func() {
		if got := sys.memoKey(in); got != want {
			t.Fatalf("memo key unstable: %#x != %#x", got, want)
		}
	})
	if allocs != 0 {
		t.Errorf("memoKey allocates %.1f times per call, want 0", allocs)
	}
}

// TestSharedCacheKeysMachineModel: two tenants sharing one CodeCache that
// differ only in the machine model's memory latency must never reuse
// each other's schedules. Each tenant's stats and guest state must match
// its solo run, modulo the hit/miss/dedupe counters.
func TestSharedCacheKeysMachineModel(t *testing.T) {
	bm, _ := workload.ByName("swim")
	type result struct {
		stats  Stats
		st     guest.State
		digest uint64
	}
	run := func(memLat int, cache *CodeCache) result {
		cfg := ConfigSMARQ(64)
		cfg.Machine.MemLat = memLat
		cfg.Compile.SharedCache = cache
		st, mem := &guest.State{}, guest.NewMemory(bm.MemSize)
		sys := New(bm.Build(), st, mem, cfg)
		if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
			t.Fatalf("MemLat=%d: halted=%v err=%v", memLat, halted, err)
		}
		r := result{stats: sys.Stats, st: *st, digest: mem.Digest()}
		r.stats.Compile.MemoHits, r.stats.Compile.MemoMisses, r.stats.Compile.DedupeWaits = 0, 0, 0
		return r
	}
	shared := NewCodeCache(CodeCacheOptions{})
	for _, memLat := range []int{3, 6} {
		got := run(memLat, shared)
		solo := run(memLat, NewCodeCache(CodeCacheOptions{}))
		if !reflect.DeepEqual(got, solo) {
			t.Errorf("MemLat=%d: shared-cache run diverges from solo\nshared: %+v\n  solo: %+v",
				memLat, got.stats, solo.stats)
		}
	}
}
