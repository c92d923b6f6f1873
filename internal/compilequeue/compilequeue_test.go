package compilequeue

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryJob(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		var ran atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < 100; i++ {
			wg.Add(1)
			p.Submit(func() {
				ran.Add(1)
				wg.Done()
			})
		}
		wg.Wait()
		p.Close()
		if got := ran.Load(); got != 100 {
			t.Errorf("workers=%d: ran %d jobs, want 100", workers, got)
		}
	}
}

func TestPoolCloseWaitsForInFlightJobs(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	p.Close() // must not return before every submitted job has run
	if got := ran.Load(); got != 50 {
		t.Errorf("Close returned with %d/50 jobs run", got)
	}
}

func TestPoolClampsWorkerCount(t *testing.T) {
	p := NewPool(0) // degenerate request still yields a working pool
	done := make(chan struct{})
	p.Submit(func() { close(done) })
	<-done
	p.Close()
}

// TestPoolSubmitAfterClosePanics pins the fault-domain contract: a
// Submit racing past the end of the run must fail loudly and
// deterministically (a panic with a fixed message), never deadlock on a
// closed channel or silently drop the job.
func TestPoolSubmitAfterClosePanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Submit after Close did not panic")
		}
		if msg, ok := r.(string); !ok || msg != "compilequeue: Submit on a closed Pool" {
			t.Errorf("panic value = %v, want the fixed Submit-on-closed message", r)
		}
	}()
	p.Submit(func() {})
}

// TestPoolSurvivesPanickingJobs: the backstop recover must keep worker
// goroutines alive through panicking jobs — later jobs still run, Close
// still drains, and the panics are counted.
func TestPoolSurvivesPanickingJobs(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int64
	for i := 0; i < 20; i++ {
		i := i
		p.Submit(func() {
			if i%2 == 0 {
				panic("boom")
			}
			ran.Add(1)
		})
	}
	p.Close()
	if got := ran.Load(); got != 10 {
		t.Errorf("%d/10 non-panicking jobs ran — a worker died", got)
	}
	if got := p.Panics(); got != 10 {
		t.Errorf("Panics() = %d, want 10", got)
	}
}

func TestKeyDeterministic(t *testing.T) {
	build := func() Key {
		return NewKey().Word(42).Int(-7).Bool(true).Bool(false).Int(1 << 40)
	}
	if build() != build() {
		t.Error("identical fold sequences produced different keys")
	}
}

func TestKeySensitiveToEveryFold(t *testing.T) {
	base := NewKey().Word(1).Int(2).Bool(true)
	variants := map[string]Key{
		"word":       NewKey().Word(3).Int(2).Bool(true),
		"int":        NewKey().Word(1).Int(3).Bool(true),
		"bool":       NewKey().Word(1).Int(2).Bool(false),
		"extra fold": NewKey().Word(1).Int(2).Bool(true).Int(0),
		"reordered":  NewKey().Int(2).Word(1).Bool(true),
	}
	for name, k := range variants {
		if k == base {
			t.Errorf("%s variant collided with the base key", name)
		}
	}
}

func TestMemoCountsHitsAndMisses(t *testing.T) {
	m := NewMemoCap[string](0)
	k1 := NewKey().Int(1)
	k2 := NewKey().Int(2)

	if _, ok := m.Get(k1); ok {
		t.Fatal("empty memo reported a hit")
	}
	m.Put(k1, "one")
	if v, ok := m.Get(k1); !ok || v != "one" {
		t.Fatalf("Get(k1) = %q, %v after Put", v, ok)
	}
	if _, ok := m.Get(k2); ok {
		t.Fatal("Get(k2) hit without a Put")
	}

	if m.Hits() != 1 || m.Misses() != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", m.Hits(), m.Misses())
	}
	if m.Len() != 1 {
		t.Errorf("Len() = %d, want 1", m.Len())
	}
}

// TestMemoCapacityEvictsLRU: a bounded memo holds at most cap entries and
// evicts strictly in least-recently-used order, where both Get hits and
// Put updates freshen recency.
func TestMemoCapacityEvictsLRU(t *testing.T) {
	key := func(i int) Key { return NewKey().Int(int64(i)) }
	m := NewMemoCap[int](2)
	m.Put(key(1), 1)
	m.Put(key(2), 2)
	m.Get(key(1)) // freshen 1: the victim is now 2
	m.Put(key(3), 3)
	if m.Len() != 2 {
		t.Fatalf("Len() = %d, want 2 at capacity", m.Len())
	}
	if _, ok := m.Get(key(2)); ok {
		t.Error("LRU entry 2 survived the eviction")
	}
	if _, ok := m.Get(key(1)); !ok {
		t.Error("freshened entry 1 was evicted")
	}
	if _, ok := m.Get(key(3)); !ok {
		t.Error("just-inserted entry 3 was evicted")
	}
	if m.Evictions() != 1 {
		t.Errorf("Evictions() = %d, want 1", m.Evictions())
	}

	// A Put on an existing key updates in place: no eviction, fresh value,
	// freshened recency.
	m.Put(key(1), 11)
	if m.Len() != 2 || m.Evictions() != 1 {
		t.Errorf("update-in-place changed size/evictions: len=%d evictions=%d", m.Len(), m.Evictions())
	}
	if v, _ := m.Get(key(1)); v != 11 {
		t.Errorf("updated value = %d, want 11", v)
	}
	m.Put(key(4), 4) // victim must be 3, not the just-updated 1
	if _, ok := m.Get(key(3)); ok {
		t.Error("entry 3 survived though the Put update freshened 1 past it")
	}
}

// TestMemoDropOldest covers the memo-pressure hook: dropping from an
// empty table is a no-op, otherwise the coldest entry goes and is counted
// as an eviction.
func TestMemoDropOldest(t *testing.T) {
	m := NewMemoCap[int](0) // unbounded: evictions only via DropOldest
	if m.DropOldest() {
		t.Error("DropOldest on an empty memo reported an eviction")
	}
	k1, k2 := NewKey().Int(1), NewKey().Int(2)
	m.Put(k1, 1)
	m.Put(k2, 2)
	if !m.DropOldest() {
		t.Fatal("DropOldest evicted nothing")
	}
	if _, ok := m.Get(k1); ok {
		t.Error("DropOldest kept the oldest entry")
	}
	if _, ok := m.Get(k2); !ok {
		t.Error("DropOldest evicted the newest entry")
	}
	if m.Evictions() != 1 {
		t.Errorf("Evictions() = %d, want 1", m.Evictions())
	}
}

// TestMemoUnboundedNeverEvicts: capacity <= 0 keeps every entry, matching
// the pre-bound behaviour.
func TestMemoUnboundedNeverEvicts(t *testing.T) {
	m := NewMemoCap[int](0)
	for i := 0; i < 1000; i++ {
		m.Put(NewKey().Int(int64(i)), i)
	}
	if m.Len() != 1000 || m.Evictions() != 0 {
		t.Errorf("unbounded memo: len=%d evictions=%d, want 1000/0", m.Len(), m.Evictions())
	}
}

// TestMemoCapSemanticsUnchanged pins the NewMemoCap behaviour: only the
// entry cap evicts, whatever the stored values are.
func TestMemoCapSemanticsUnchanged(t *testing.T) {
	m := NewMemoCap[int](2)
	m.Put(NewKey().Int(1), 1_000_000)
	m.Put(NewKey().Int(2), 2_000_000)
	if m.Len() != 2 || m.Evictions() != 0 {
		t.Fatalf("NewMemoCap evicted early: len=%d evictions=%d", m.Len(), m.Evictions())
	}
	m.DropOldest()
	if m.Len() != 1 {
		t.Fatalf("after DropOldest: len=%d", m.Len())
	}
}
