package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"smarq/internal/alias"
	"smarq/internal/aliashw"
	"smarq/internal/atomic"
	"smarq/internal/codecache"
	"smarq/internal/compilequeue"
	"smarq/internal/deps"
	"smarq/internal/dynopt"
	"smarq/internal/guest"
	"smarq/internal/interp"
	"smarq/internal/ir"
	"smarq/internal/opt"
	"smarq/internal/region"
	"smarq/internal/sched"
	"smarq/internal/vliw"
	"smarq/internal/workload"
	"smarq/internal/xlate"
)

// The replay samples a compiled region's execution at every
// sampleStride-th visit of its entry block, at most maxSamples times.
const (
	sampleStride = 64
	maxSamples   = 64
	loopRuns     = 4
	// keyReps and atomicReps repeat the cheapest timed calls so one timed
	// interval is well above the clock's resolution.
	keyReps    = 64
	atomicReps = 8
	// lookupOps is the number of codecache hit lookups timed per
	// goroutine.
	lookupOps = 200000
)

// span is one timed call into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int32         // index of the enclosing span, -1 at the root
	job        int32         // the replayed program
}

// tracer keeps spans in memory; with on unset it only reads the clock, so
// the same replay code yields the untraced timing.
type tracer struct {
	on     bool
	origin time.Time
	job    int32
	spans  []span
}

func (t *tracer) open(name string, parent int) (int, time.Time) {
	now := time.Now()
	if !t.on {
		return -1, now
	}
	t.spans = append(t.spans, span{name: name, start: now.Sub(t.origin), parent: int32(parent), job: t.job})
	return len(t.spans) - 1, now
}

func (t *tracer) close(id int, start time.Time) time.Duration {
	now := time.Now()
	if id >= 0 {
		t.spans[id].end = now.Sub(t.origin)
	}
	return now.Sub(start)
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, one thread per replayed program), which Perfetto and
// chrome://tracing open directly.
func (t *tracer) writeChrome(path string, names []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, name := range names {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(map[string]any{"name": "thread_name", "ph": "M", "pid": 1, "tid": i, "args": map[string]string{"name": name}}); err != nil {
			f.Close()
			return err
		}
	}
	for i, s := range t.spans {
		fmt.Fprint(w, ",")
		ev := map[string]any{
			"name": s.name, "ph": "X", "pid": 1, "tid": s.job,
			"ts":   float64(s.start.Nanoseconds()) / 1e3,
			"dur":  float64((s.end - s.start).Nanoseconds()) / 1e3,
			"args": map[string]int32{"span": int32(i), "parent": s.parent, "job": s.job},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// acc accumulates host time over a count of work units.
type acc struct {
	ns, n float64
}

func (a *acc) add(d time.Duration, n int) {
	a.ns += float64(d.Nanoseconds())
	a.n += float64(n)
}

func (a *acc) per() float64 { return ratio(a.ns, a.n) }

// compileStagesList names the timed compile stages, in pipeline order.
var compileStagesList = []string{"xlate.translate", "alias.table", "opt.run", "deps.compute", "sched.run", "vliw.encode"}

// layerTimes is what one replay of a workload measured.
type layerTimes struct {
	decode, interp acc
	form           acc
	stages         map[string]*acc
	key            acc
	poolWait       acc
	// execDet/execNone are per region entry and commitDet/commitNone per
	// committed guest instruction, each weighted by region visits.
	execDet, execNone     acc
	commitDet, commitNone acc
	store, rollback       acc
	// commits and storesBuffered count the sampled entries that committed
	// and the stores they buffered.
	commits, storesBuffered float64
	lookup, lookup2         acc
	wall                    time.Duration
}

func newLayerTimes() *layerTimes {
	lt := &layerTimes{stages: make(map[string]*acc)}
	for _, s := range compileStagesList {
		lt.stages[s] = &acc{}
	}
	return lt
}

// replayed is one compiled region of the replay.
type replayed struct {
	sb      *region.Superblock
	cr      *vliw.CompiledRegion
	visits  int
	samples int
	stores  int
	// execDet/execNone time every sampled entry; commitDet/commitNone
	// only the entries that committed under both detectors.
	execDet, execNone     acc
	commitDet, commitNone acc
}

// weigh adds the region's mean sampled costs to lt, weighted by how often
// its entry block was reached, so hot regions count as often as a real
// run dispatches them.
func (rg *replayed) weigh(lt *layerTimes) {
	v := float64(rg.visits)
	if rg.execDet.n > 0 {
		lt.execDet.ns += rg.execDet.per() * v
		lt.execNone.ns += rg.execNone.per() * v
		lt.execDet.n += v
		lt.execNone.n += v
	}
	if rg.commitDet.n > 0 {
		insts := v * float64(rg.cr.GuestInsts)
		lt.commitDet.ns += rg.commitDet.per() * v
		lt.commitNone.ns += rg.commitNone.per() * v
		lt.commitDet.n += insts
		lt.commitNone.n += insts
	}
}

// replayer drives each layer's public functions the way dynopt does,
// with a span around every call.
type replayer struct {
	w     *workloadSpec
	tr    *tracer
	lt    *layerTimes
	snap  []byte
	ectx  vliw.ExecContext
	keys  []compilequeue.Key
	crs   []*vliw.CompiledRegion
	sink  compilequeue.Key
	suite []workload.Benchmark
}

// replay runs every program of the workload through the layers once and
// returns the layer times; with trace set the spans are kept in tr.
func replay(w *workloadSpec, tr *tracer) (*layerTimes, error) {
	r := &replayer{w: w, tr: tr, lt: newLayerTimes(), suite: workload.SuiteScaled(suiteScale)}
	start := time.Now()
	for i, bm := range r.suite {
		tr.job = int32(i)
		if err := r.program(bm, w.config(i, 0)); err != nil {
			return nil, fmt.Errorf("replay %s: %w", bm.Name, err)
		}
	}
	tr.job = int32(len(r.suite))
	r.driveCache()
	r.lt.wall = time.Since(start)
	return r.lt, nil
}

func newDetector(cfg dynopt.Config) aliashw.Detector {
	switch cfg.Mode {
	case sched.HWOrdered:
		return aliashw.NewOrderedQueue(cfg.NumAliasRegs)
	case sched.HWALAT:
		return aliashw.NewALAT()
	case sched.HWBitmask:
		return aliashw.NewBitmask(cfg.NumAliasRegs)
	}
	return aliashw.None{}
}

// program replays one guest program: it interprets the program with the
// profiler on, forms and compiles each region when its entry block turns
// hot, samples compiled regions from their live entry state, and then
// drives the key fold, the compile pool and the atomic region with those
// regions.
func (r *replayer) program(bm workload.Benchmark, cfg dynopt.Config) error {
	tr := r.tr
	root, rootT := tr.open("replay "+bm.Name, -1)
	defer tr.close(root, rootT)

	prog := bm.Build()
	st := &guest.State{}
	mem := guest.NewMemory(bm.MemSize)
	if cap(r.snap) < bm.MemSize {
		r.snap = make([]byte, bm.MemSize)
	}
	r.snap = r.snap[:bm.MemSize]

	sp, t0 := tr.open("interp.decode", root)
	it := interp.New(prog, st, mem)
	r.lt.decode.add(tr.close(sp, t0), 1)

	det := newDetector(cfg)
	regions := make([]*replayed, len(prog.Blocks))
	covered := make([]bool, len(prog.Blocks))
	var order []*replayed

	sp, t0 = tr.open("interp.run", root)
	before := it.DynInsts
	pause := func() { r.lt.interp.add(tr.close(sp, t0), int(it.DynInsts-before)) }
	resume := func() {
		sp, t0 = tr.open("interp.run", root)
		before = it.DynInsts
	}
	for id := prog.Entry; id != interp.HaltID; {
		if rg := regions[id]; rg != nil {
			rg.visits++
			if rg.visits%sampleStride == 1 && rg.samples < maxSamples {
				pause()
				r.sample(rg, st, mem, det, root)
				resume()
			}
		}
		next, err := it.RunBlock(id)
		if err != nil {
			return err
		}
		if !covered[id] && it.Prof.Hot(id, cfg.HotThreshold) {
			pause()
			rg, err := r.compile(prog, it.Prof, id, cfg, root)
			resume()
			covered[id] = true
			if err == nil {
				for _, b := range rg.sb.Blocks {
					covered[b] = true
				}
				regions[id] = rg
				order = append(order, rg)
			}
		}
		id = next
	}
	pause()

	for _, rg := range order {
		rg.weigh(r.lt)
		r.driveKey(rg, root)
		r.driveAtomic(rg, bm.MemSize, root)
	}
	r.drivePool(order, cfg, root)
	return nil
}

func (r *replayer) compile(prog *guest.Program, prof *interp.Profile, entry int, cfg dynopt.Config, parent int) (*replayed, error) {
	sp, t0 := r.tr.open("region.form", parent)
	sb, err := region.Form(prog, prof, entry, cfg.Region)
	r.lt.form.add(r.tr.close(sp, t0), 1)
	if err != nil {
		return nil, err
	}
	cr, err := compileStages(sb, cfg, r.tr, parent, r.lt.stages)
	if err != nil {
		return nil, err
	}
	r.keys = append(r.keys, foldKey(sb))
	r.crs = append(r.crs, cr)
	return &replayed{sb: sb, cr: cr}, nil
}

// compileStages runs dynopt's compile pipeline for a region at the full
// speculation tier, one layer call at a time, adding each stage's host
// time to stages (nil: untimed).
func compileStages(sb *region.Superblock, cfg dynopt.Config, tr *tracer, parent int, stages map[string]*acc) (*vliw.CompiledRegion, error) {
	c, ct := tr.open("compile", parent)
	defer tr.close(c, ct)
	timed := func(name string, f func()) {
		sp, t0 := tr.open(name, c)
		f()
		if d := tr.close(sp, t0); stages != nil {
			stages[name].ns += float64(d.Nanoseconds())
		}
	}
	defer func() {
		for _, a := range stages {
			a.n++
		}
	}()

	speculative := cfg.Mode == sched.HWOrdered || cfg.Mode == sched.HWBitmask
	optCfg := opt.Config{LoadElim: true, StoreElim: true, Speculative: speculative}
	scfg := sched.Config{
		Mode:           cfg.Mode,
		NumAliasRegs:   cfg.NumAliasRegs,
		StoreReorder:   cfg.StoreReorder,
		PressureMargin: 4,
		Machine:        cfg.Machine,
	}
	ar := ir.NewArena()
	var (
		reg    *ir.Region
		tbl    *alias.Table
		optRes *opt.Result
		ds     *deps.Set
		sc     *sched.Schedule
		cr     *vliw.CompiledRegion
		err    error
	)
	timed("xlate.translate", func() { reg, err = xlate.TranslateArena(sb, ar) })
	if err != nil {
		return nil, err
	}
	timed("alias.table", func() { tbl = alias.BuildTable(reg, nil) })
	timed("opt.run", func() { optRes = opt.Run(reg, tbl, optCfg) })
	timed("deps.compute", func() { ds = deps.Compute(reg, tbl) })
	timed("opt.run", func() { opt.AddExtendedDeps(ds, reg, tbl, optRes) })
	defer func() {
		tbl.Release()
		ds.Release()
		optRes.Release()
	}()
	timed("sched.run", func() {
		if sc, err = sched.Run(reg, tbl, ds, scfg); err == nil {
			return
		}
		// Alias register overflow: dynopt's first retry pins the region
		// to non-speculation mode after clearing the annotations.
		for _, o := range reg.Ops {
			o.AROffset, o.ARMask, o.P, o.C = -1, 0, false, false
		}
		scfg.ForceNonSpec = true
		sc, err = sched.Run(reg, tbl, ds, scfg)
	})
	if err != nil {
		return nil, err
	}
	timed("vliw.encode", func() {
		fseq, freg := ir.Freeze(sc.Seq, reg)
		cr = cfg.Machine.Compile(fseq, freg, len(sb.Insts))
		if err = cr.Validate(); err == nil {
			_ = cr.Checksum()
		}
	})
	sc.Release()
	return cr, err
}

// sample executes rg from the live entry state with the workload's
// detector and, after restoring that state, with none. A region whose
// commit leads back to its own entry is run up to loopRuns times in a
// row, as a hot loop region runs in a real job, and the first execution
// only warms the host caches; a region that exits is timed once.
func (r *replayer) sample(rg *replayed, st *guest.State, mem *guest.Memory, det aliashw.Detector, parent int) {
	rg.samples++
	saved := *st
	copy(r.snap, mem.Bytes())
	exec := func(name string, d aliashw.Detector) (all, committed acc, stores int) {
		var first time.Duration
		for k := 0; k < loopRuns; k++ {
			sp, t0 := r.tr.open(name, parent)
			res := r.ectx.Execute(rg.cr, st, mem, d)
			elapsed := r.tr.close(sp, t0)
			commit := res.Outcome == vliw.Commit
			switch {
			case k == 0:
				first = elapsed
				stores = res.StoresBuffered
			default:
				all.add(elapsed, 1)
				if commit {
					committed.add(elapsed, 1)
				}
			}
			if !commit || res.NextBlock != rg.sb.Entry {
				if k == 0 {
					all.add(first, 1)
					if commit {
						committed.add(first, 1)
					}
				}
				break
			}
		}
		*st = saved
		copy(mem.Bytes(), r.snap)
		return all, committed, stores
	}
	detAll, detCommit, stores := exec("vliw.execute", det)
	noneAll, noneCommit, _ := exec("vliw.execute.none", aliashw.None{})
	rg.execDet.add(time.Duration(detAll.per()), 1)
	rg.execNone.add(time.Duration(noneAll.per()), 1)
	if detCommit.n > 0 && noneCommit.n > 0 {
		rg.commitDet.add(time.Duration(detCommit.per()), 1)
		rg.commitNone.add(time.Duration(noneCommit.per()), 1)
		r.lt.commits++
		r.lt.storesBuffered += float64(stores)
		rg.stores = max(rg.stores, stores)
	}
}

// foldKey is the superblock part of dynopt's compile-cache key: every
// instruction field folded into a compilequeue.Key.
func foldKey(sb *region.Superblock) compilequeue.Key {
	k := compilequeue.NewKey()
	k = k.Int(int64(sb.Entry)).Int(int64(sb.FinalTarget)).Int(int64(sb.UnrollFactor))
	k = k.Int(int64(len(sb.Blocks)))
	for _, b := range sb.Blocks {
		k = k.Int(int64(b))
	}
	k = k.Int(int64(len(sb.Insts)))
	for i := range sb.Insts {
		gi := &sb.Insts[i]
		k = k.Int(int64(gi.Inst.Op)).Int(int64(gi.Inst.Rd)).Int(int64(gi.Inst.Rs1)).Int(int64(gi.Inst.Rs2))
		k = k.Int(gi.Inst.Imm).Word(math.Float64bits(gi.Inst.FImm)).Int(int64(gi.Inst.Target))
		k = k.Bool(gi.IsGuard).Bool(gi.OnTraceTaken).Int(int64(gi.OffTrace))
	}
	return k
}

func (r *replayer) driveKey(rg *replayed, parent int) {
	sp, t0 := r.tr.open("compilequeue.key", parent)
	for i := 0; i < keyReps; i++ {
		r.sink ^= foldKey(rg.sb)
	}
	r.lt.key.add(r.tr.close(sp, t0), keyReps*len(rg.sb.Insts))
}

// driveAtomic opens an atomic region over scratch state, issues the
// region's own store count of stores, and rolls back.
func (r *replayer) driveAtomic(rg *replayed, memSize int, parent int) {
	if rg.stores == 0 {
		return
	}
	st := &guest.State{}
	mem := guest.NewMemory(memSize)
	var reg atomic.Region
	for rep := 0; rep < atomicReps; rep++ {
		sp, t0 := r.tr.open("atomic.rollback", parent)
		reg.Begin(st, mem)
		ts := time.Now()
		for j := 0; j < rg.stores; j++ {
			if err := reg.Store(uint64(j*8%(memSize-8)), 8, uint64(j)); err != nil {
				panic(err)
			}
		}
		storeD := time.Since(ts)
		reg.Rollback()
		r.lt.rollback.add(r.tr.close(sp, t0), rg.stores)
		r.lt.store.add(storeD, rg.stores)
	}
}

// drivePool submits one compile job per region to a fresh pool of the
// workload's compile-worker count and times each from Submit to start.
func (r *replayer) drivePool(order []*replayed, cfg dynopt.Config, parent int) {
	if len(order) == 0 {
		return
	}
	sp, t0 := r.tr.open("compilequeue.pool", parent)
	defer r.tr.close(sp, t0)
	submitted := make([]time.Time, len(order))
	started := make([]time.Time, len(order))
	pool := compilequeue.NewPool(r.w.poolWorkers)
	for j, rg := range order {
		submitted[j] = time.Now()
		pool.Submit(func() {
			started[j] = time.Now()
			_, _ = compileStages(rg.sb, cfg, &tracer{}, -1, nil)
		})
	}
	pool.Close()
	for j := range order {
		r.lt.poolWait.add(started[j].Sub(submitted[j]), 1)
	}
}

// driveCache inserts every replayed region into a fresh sharded code
// cache by key and times hit lookups alone and from 2 goroutines.
func (r *replayer) driveCache() {
	if len(r.keys) == 0 {
		return
	}
	cache := codecache.New[*vliw.CompiledRegion](codecache.Options{}, (*vliw.CompiledRegion).Bytes)
	for i, k := range r.keys {
		if _, hit, f, leader := cache.Lookup(k); !hit && leader {
			cache.Complete(k, f, r.crs[i], true)
		}
	}
	lookups := func() {
		for i := 0; i < lookupOps; i++ {
			cache.Lookup(r.keys[i%len(r.keys)])
		}
	}
	sp, t0 := r.tr.open("codecache.lookup", -1)
	lookups()
	r.lt.lookup.add(r.tr.close(sp, t0), lookupOps)

	sp, t0 = r.tr.open("codecache.lookup.2g", -1)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lookups()
		}()
	}
	wg.Wait()
	r.lt.lookup2.add(r.tr.close(sp, t0), lookupOps)
}
