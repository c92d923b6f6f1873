// Package compilequeue is the host-side machinery behind dynopt's
// asynchronous background compilation: a bounded worker pool that runs
// pure compile jobs off the dispatch path, and the content-hash Key over
// the canonical bytes of a region's guest instructions plus the
// configuration bits that affect its compilation. The cache those keys
// index is package codecache.
//
// Determinism discipline: nothing in this package makes a *simulated*
// decision. Workers execute pure functions whose inputs are snapshotted on
// the simulation thread; every observable choice — what to enqueue, when a
// result installs, cache lookups and inserts — happens on the simulation
// thread at points fixed by the simulated clock. The worker count
// therefore changes only host wall time, never a single simulated cycle,
// stat, or telemetry byte.
package compilequeue

import (
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool for background compile jobs. Jobs are
// plain funcs; completion signalling (and any result hand-off) is the
// job's own business — dynopt closes a per-job channel that the install
// point blocks on.
//
// Workers are a fault domain: a panicking job is recovered and counted
// instead of killing its worker goroutine (and with it the process).
// Callers that need the panic value — dynopt converts it into a
// failed-compile event — should wrap their own recover around the job;
// the pool's recover is the backstop for jobs that don't.
type Pool struct {
	jobs   chan func()
	wg     sync.WaitGroup
	closed atomic.Bool
	panics atomic.Int64
}

// NewPool starts a pool with the given number of worker goroutines
// (workers must be >= 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	// The buffer only decouples the submitting thread from worker
	// scheduling; queue *semantics* (ordering, install points) live in the
	// caller's pending list, so its size is not observable.
	p := &Pool{jobs: make(chan func(), 4*workers)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for fn := range p.jobs {
		p.runJob(fn)
	}
}

// runJob executes one job behind the panic backstop: the worker survives,
// the panic is counted, and the job is simply over (any completion channel
// it owned stays unclosed — which is why result-carrying callers wrap
// their own recover).
func (p *Pool) runJob(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
		}
	}()
	fn()
}

// Panics returns how many jobs the backstop recovered from.
func (p *Pool) Panics() int64 { return p.panics.Load() }

// Submit hands a job to the pool. It may block briefly when every worker
// is busy and the submission buffer is full; it never drops a job.
// Submitting after Close panics deterministically (it can never deadlock):
// the pool's producer is the single simulation thread, which must not
// enqueue past the end of the run.
func (p *Pool) Submit(fn func()) {
	if p.closed.Load() {
		panic("compilequeue: Submit on a closed Pool")
	}
	p.jobs <- fn
}

// Close stops accepting jobs and waits for all submitted jobs to finish.
// Submit after Close panics; Close is idempotent-unsafe by design (one
// owner, one Close).
func (p *Pool) Close() {
	p.closed.Store(true)
	close(p.jobs)
	p.wg.Wait()
}

// Key is a 64-bit FNV-1a content hash identifying a compilation input:
// the superblock's instruction bytes plus every configuration bit that
// changes the produced code (tier-derived flags, blacklist pairs, pinned
// loads). Two enqueues with equal keys compile to interchangeable code.
type Key uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewKey returns the hash seed.
func NewKey() Key { return Key(fnvOffset64) }

// Word folds one 64-bit word into the hash, byte by byte (FNV-1a).
func (k Key) Word(v uint64) Key {
	h := uint64(k)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return Key(h)
}

// Int folds a signed word.
func (k Key) Int(v int64) Key { return k.Word(uint64(v)) }

// Bool folds a flag.
func (k Key) Bool(b bool) Key {
	if b {
		return k.Word(1)
	}
	return k.Word(0)
}
