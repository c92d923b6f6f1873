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
