package dynopt

import (
	"runtime"
	"sort"
	"sync"
	"testing"

	"smarq/internal/guest"
	"smarq/internal/workload"
)

// suiteCompileInputs runs each named workload under cfg and snapshots the
// compile input of every superblock it formed, in entry order.
func suiteCompileInputs(t *testing.T, cfg Config, names ...string) []*compileInput {
	t.Helper()
	var ins []*compileInput
	for _, name := range names {
		bm, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no workload %q", name)
		}
		sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
		if _, err := sys.Run(200_000); err != nil {
			t.Fatal(err)
		}
		entries := make([]int, 0, len(sys.sbCache))
		for e := range sys.sbCache {
			entries = append(entries, e)
		}
		sort.Ints(entries)
		for _, e := range entries {
			in, err := sys.newCompileInput(e)
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, in)
		}
	}
	if len(ins) == 0 {
		t.Fatal("no superblocks formed")
	}
	return ins
}

// TestCompileAllocsIndependentOfGC: compile scratch lives on a free list
// the garbage collector never empties, so a compile right after two
// forced collections allocates exactly as many objects as a warm one.
// (Two collections empty a sync.Pool, victim cache included.)
func TestCompileAllocsIndependentOfGC(t *testing.T) {
	ins := suiteCompileInputs(t, ConfigSMARQ(64), "ammp")
	in := ins[len(ins)-1]
	for _, c := range ins {
		if len(c.sb.Insts) > len(in.sb.Insts) {
			in = c
		}
	}
	compile := func() {
		if out := runCompilePipeline(in); out.err != nil {
			t.Fatal(out.err)
		}
	}
	warm := testing.AllocsPerRun(20, compile)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	compile()
	runtime.ReadMemStats(&after)
	if cold := after.Mallocs - before.Mallocs; float64(cold) != warm {
		t.Errorf("compile after GC allocates %d objects, warm compile %.0f", cold, warm)
	}
}

// TestCompileScratchConcurrent: goroutines compiling distinct superblocks
// at once each borrow their own scratch from the free list, and every
// output equals the reference pipeline's. Run under -race, this also
// checks that no two compiles ever share a scratch.
func TestCompileScratchConcurrent(t *testing.T) {
	ins := suiteCompileInputs(t, ConfigSMARQ(64), "swim", "equake", "ammp")
	const workers, rounds = 4, 3
	// Each worker walks the inputs from its own offset, so concurrent
	// compiles cover different superblocks and each scratch sees a mix of
	// region sizes.
	pick := func(w, i int) *compileInput { return ins[(i+w*len(ins)/workers)%len(ins)] }
	outs := make([][]*compileOutput, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			start.Wait()
			for r := 0; r < rounds; r++ {
				for i := range ins {
					outs[w] = append(outs[w], runCompilePipeline(pick(w, i)))
				}
			}
		}(w)
	}
	start.Done()
	done.Wait()
	for w := range outs {
		for k, out := range outs[w] {
			in := pick(w, k%len(ins))
			compareOutputs(t, in.entry, out, runCompilePipelineRef(in))
		}
	}
}
