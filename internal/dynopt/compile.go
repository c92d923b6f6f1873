// Compilation: the pipeline (xlate → opt → constraint/deps → sched →
// alias allocation → vliw.Compile) is a pure function over snapshotted
// inputs, and every request takes one flow (startCompile): snapshot,
// memo or shared-cache lookup, host-fault draws, run, admission, install.
// With Compile.Workers == 0 the job runs inline and installs at once;
// otherwise it runs on a bounded host worker pool behind a deterministic
// simulated compile-latency model.
//
// Determinism rule: a region's install point is a pure function of the
// simulated clock — readyAt = request cycle + CompileCyclesPerInst ×
// guest insts + CompileCyclesPerCheck × guest mem ops, both derived from
// the superblock alone, never from the compile result or the wall clock.
// Every simulated decision (chaos draws, memo lookups, enqueue, install,
// cancellation) happens on the simulation thread; workers only evaluate
// the pure pipeline. Any Workers >= 1 therefore produces byte-identical
// stats, telemetry and guest state; the worker count is host parallelism
// only.
package dynopt

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"smarq/internal/alias"
	"smarq/internal/codecache"
	"smarq/internal/compilequeue"
	"smarq/internal/core"
	"smarq/internal/deps"
	"smarq/internal/faultinject"
	"smarq/internal/ir"
	"smarq/internal/opt"
	"smarq/internal/region"
	"smarq/internal/sched"
	"smarq/internal/telemetry"
	"smarq/internal/vliw"
	"smarq/internal/xlate"
)

// CompileConfig configures the background-compilation subsystem.
type CompileConfig struct {
	// Workers is the compile worker count. 0 (the default) runs each
	// compile inline: it installs at the request's simulated instant and
	// charges Opt/SchedCycles on the critical path. Workers >= 1 runs
	// compiles on that many host workers while the interpreter keeps
	// executing, and installs each only once the simulated clock passes
	// the region's readyAt point. Every N >= 1 yields byte-identical
	// simulated results.
	Workers int
	// Memoize enables content-hash memoization of compiled regions:
	// recompiling a region whose guest instructions and configuration
	// bits hash to a previously compiled key reuses that code without
	// re-running the pipeline. Simulated costs are replayed on a hit, so
	// stats are identical with memoization on or off (apart from the
	// hit/miss counters themselves). Works at any worker count.
	Memoize bool
	// MemoCapacity bounds the memo table in entries; past the bound the
	// least recently used entry is evicted. 0 selects
	// DefaultMemoCapacity; negative means unbounded.
	MemoCapacity int
	// WatchdogFactor fixes each background compile's watchdog deadline at
	// enqueue-cycle + modelled-cost × factor, in simulated cycles. A
	// compile still pending at its deadline is killed at that point — its
	// result is never read — and the region retries later under the
	// transient-failure backoff. 0 selects DefaultWatchdogFactor.
	WatchdogFactor int
	// SharedPool, when non-nil, runs this System's background compiles on
	// a host-wide worker pool shared across concurrently running Systems
	// (fleet execution) instead of a private per-System pool. Workers must
	// still be >= 1 to select the background path; the shared pool's own
	// size governs host parallelism. The System never closes a shared
	// pool — its creator does, after every System using it has finished.
	SharedPool *compilequeue.Pool
	// SharedCache, when non-nil, replaces the private memo table with a
	// concurrent sharded content-addressed cache shared across Systems:
	// identical regions compile once fleet-wide, and a region being
	// compiled by one tenant is awaited (cross-tenant single-flight), not
	// recompiled, by others. Hits replay the modelled compile costs
	// exactly like memo hits, so each tenant's simulated results are
	// byte-identical to a solo run modulo the hit/miss/dedupe counters.
	// Mutually exclusive with Memoize.
	SharedCache *CodeCache
}

// DefaultMemoCapacity is the memo-table bound when MemoCapacity is 0.
const DefaultMemoCapacity = 4096

// DefaultWatchdogFactor is the deadline multiple when WatchdogFactor is 0.
const DefaultWatchdogFactor = 4

// memoEntries resolves MemoCapacity to the private cache's entry budget,
// where 0 means unbounded.
func (cc CompileConfig) memoEntries() int64 {
	switch {
	case cc.MemoCapacity == 0:
		return DefaultMemoCapacity
	case cc.MemoCapacity < 0:
		return 0
	}
	return int64(cc.MemoCapacity)
}

// watchdogFactor resolves the configured deadline multiple.
func (cc CompileConfig) watchdogFactor() int64 {
	if cc.WatchdogFactor > 0 {
		return int64(cc.WatchdogFactor)
	}
	return DefaultWatchdogFactor
}

// CompileStats is the background-compilation accounting.
type CompileStats struct {
	// Enqueued/Installed/Canceled/Failed count background compilations
	// through their lifecycle (all zero with Workers == 0).
	Enqueued  int64
	Installed int64
	Canceled  int64
	Failed    int64
	// MemoHits/MemoMisses count content-hash lookups (both paths), against
	// the private memo or the shared fleet cache.
	MemoHits   int64
	MemoMisses int64
	// DedupeWaits counts lookups that joined another tenant's in-flight
	// compile of the same key instead of compiling (shared cache only;
	// every dedupe wait is also counted as a miss).
	DedupeWaits int64
	// WorkCycles is the simulated compile occupancy performed off the
	// critical path (the latency model's cost per installed region). It
	// is deliberately excluded from Stats.TotalCycles: hiding this work
	// is the point of background compilation.
	WorkCycles int64
	// LatencySum accumulates observed enqueue→install latencies (the
	// per-region value is RegionStats.CompileLatency).
	LatencySum int64
	// MaxQueueDepth is the high-water mark of in-flight compilations.
	MaxQueueDepth int
	// WorkerPanics counts compile jobs that panicked and were converted
	// into failed-compile events (the region is quarantined).
	WorkerPanics int64
	// WatchdogKills counts background compiles killed at their simulated
	// watchdog deadline.
	WatchdogKills int64
	// Rejected counts install-time validation rejections of poisoned
	// compile results (content-checksum mismatch or broken structural
	// invariants).
	Rejected int64
	// Quarantined counts regions permanently barred from compiling (a
	// worker panic in their compile, or the health controller's
	// quarantine level at the moment they became hot).
	Quarantined int64
	// MemoEvictions counts memo entries evicted by the capacity bound or
	// injected memo pressure.
	MemoEvictions int64
}

// errInjectedCompileFail marks chaos-injected compile failures so the
// cooldown policy can tell them apart from genuinely unschedulable
// regions (see compileFailBackoff).
var errInjectedCompileFail = errors.New("faultinject: simulated compile failure")

// errCompilePanic marks a compile-worker panic converted into a
// failed-compile event; the region is quarantined, so no retry policy
// applies.
var errCompilePanic = errors.New("dynopt: compile worker panicked")

// errWatchdogTimeout marks a background compile killed at its watchdog
// deadline. Like injected failures it is transient — the host was slow,
// not the region unschedulable — so it backs off additively.
var errWatchdogTimeout = errors.New("dynopt: compile watchdog deadline overrun")

// errPoisonedResult marks a compile result rejected by install-time
// validation; also transient (a fresh compile of the same input is
// expected to come out clean).
var errPoisonedResult = errors.New("dynopt: poisoned compile result rejected")

// compileInput is everything the pipeline reads, snapshotted on the
// simulation thread at the request: the superblock is immutable after Form,
// and the blacklist and pin sets are copied because the simulation thread
// mutates the live maps on alias exceptions while a worker may still be
// compiling.
type compileInput struct {
	entry     int
	sb        *region.Superblock
	optCfg    opt.Config
	scfg      sched.Config
	blacklist alias.Blacklist
}

// compileOutput is the pipeline's result plus everything the install
// point needs to replay the compilation's simulated costs — memo hits
// hand back the same object, so a hit must be observationally identical
// to a re-run.
type compileOutput struct {
	cr              *vliw.CompiledRegion
	alloc           core.Stats
	working         core.WorkingSets
	seqLen          int
	numOps          int64
	guestInsts      int
	memOps          int
	overflowRetries int
	err             error
	// checksum is the content hash of cr, stamped by the worker right
	// after the pipeline finishes; the install point recomputes it to
	// reject results corrupted in flight (see admitOutput).
	checksum uint64
	// panicked marks a result synthesized from a recovered worker panic
	// (err carries the panic value wrapped in errCompilePanic).
	panicked bool
}

// pendingCompile is one compile request between its start and its
// install point.
type pendingCompile struct {
	entry      int
	seq        int64 // enqueue order, the (readyAt, seq) tie break
	enqueuedAt int64 // simulated cycle of the enqueue
	readyAt    int64 // earliest simulated cycle the result may install
	deadline   int64 // watchdog kill point: enqueue cycle + cost × watchdog factor
	key        compilequeue.Key
	memoHit    bool
	recompile  bool // code was installed when the request started
	// hung marks a chaos-injected compile hang: no job is submitted, and
	// the pending entry is killed by the watchdog at deadline.
	hung bool
	// out is written by the worker then published by closing done; on a
	// memo hit, or an inline compile, it is set at the start and done
	// stays nil.
	out  *compileOutput
	done chan struct{}
	// flight is the shared-cache single-flight this request leads or
	// joined (shared mode only); wait takes the result from it when out
	// is still nil. deduped marks the follower case — this request joined
	// another tenant's flight instead of leading one — so the install
	// point can attribute its latency as dedupe wait.
	flight  *codecache.Flight[*compileOutput]
	deduped bool
}

// at is the pending compile's queue event time: its install point, or —
// for a hung job — the watchdog deadline at which it is killed. Both are
// pure functions of the simulated clock and the superblock, so the
// install order never depends on host timing.
func (p *pendingCompile) at() int64 {
	if p.hung {
		return p.deadline
	}
	return p.readyAt
}

// bgCompile is the System's background-compilation state (nil when
// Compile.Workers == 0).
type bgCompile struct {
	pool *compilequeue.Pool
	// pending maps a region entry to its live pending compile
	// (single-flight per entry); queue holds the same entries in install
	// order (readyAt, then enqueue seq).
	pending map[int]*pendingCompile
	queue   []*pendingCompile
	seq     int64
}

// newCompileInput snapshots entry's compile inputs, forming (and caching)
// its superblock on first use.
func (s *System) newCompileInput(entry int) (*compileInput, error) {
	sb, ok := s.sbCache[entry]
	if !ok {
		var err error
		sb, err = region.Form(s.prog, s.it.Prof, entry, s.cfg.Region)
		if err != nil {
			return nil, err
		}
		s.sbCache[entry] = sb
	}
	s.recoveryOf(entry) // create the ladder controller on first compile
	// The effective tier folds the health controller's no-speculation
	// clamp; it flows into both the opt and sched configs, and through
	// them into the memo key, so clamped and unclamped compiles of the
	// same region never collide in the memo.
	et := s.effectiveTier(entry)
	in := &compileInput{
		entry:  entry,
		sb:     sb,
		optCfg: s.optConfig(et),
	}
	if bl := s.blacklist[entry]; len(bl) > 0 {
		in.blacklist = make(alias.Blacklist, len(bl))
		for p := range bl {
			in.blacklist[p] = true
		}
	}
	var pins map[int]bool
	if live := s.pinnedLoads[entry]; len(live) > 0 {
		pins = make(map[int]bool, len(live))
		for op := range live {
			pins[op] = true
		}
	}
	in.scfg = sched.Config{
		Mode:           s.cfg.Mode,
		NumAliasRegs:   s.cfg.NumAliasRegs,
		StoreReorder:   s.cfg.StoreReorder && et < TierNoStoreReorder,
		ForceNonSpec:   et >= TierConservative,
		PinnedOps:      pins,
		PressureMargin: 4,
		Machine:        s.cfg.Machine,
		Alloc: core.Options{
			DisableAnti:     s.cfg.Ablation.Anti,
			DisableRotation: s.cfg.Ablation.Rotation,
		},
	}
	return in, nil
}

// compileScratch is the working storage of one compile: the IR arena and
// one reusable value per pipeline stage, each reset and refilled in place
// by its stage. Installed code is frozen out of the arena before the
// scratch is reused, so nothing that outlives the compile aliases it.
type compileScratch struct {
	arena ir.Arena
	xl    xlate.Translator
	tbl   alias.Table
	opt   opt.Result
	deps  deps.Set
	sched sched.Scratch
}

// scratchFree is the one free list of compile scratch, shared by inline
// and background compiles. The garbage collector never empties it, so a
// compile's allocations do not depend on GC timing, and it grows only to
// the peak number of concurrent compiles.
var scratchFree struct {
	sync.Mutex
	list []*compileScratch
}

// takeScratch borrows a compile scratch from the free list, or makes one
// when every scratch is in use.
func takeScratch() *compileScratch {
	scratchFree.Lock()
	defer scratchFree.Unlock()
	n := len(scratchFree.list)
	if n == 0 {
		return new(compileScratch)
	}
	cs := scratchFree.list[n-1]
	scratchFree.list = scratchFree.list[:n-1]
	return cs
}

// giveScratch returns a borrowed scratch to the free list.
func giveScratch(cs *compileScratch) {
	cs.arena.Reset()
	scratchFree.Lock()
	scratchFree.list = append(scratchFree.list, cs)
	scratchFree.Unlock()
}

// compilePipeline is the active compile path. Tests swap in
// runCompilePipelineRef to differentially check the flat-arena pipeline
// against the retained reference implementation.
var compilePipeline = runCompilePipeline

// runCompilePipeline is the pure compile path: translate, optimize,
// compute dependences, schedule with alias register allocation (with the
// overflow retry ladder), and bake the VLIW code. It touches nothing but
// its input, so it is safe on a worker goroutine.
//
// Every intermediate structure lives in a compileScratch borrowed from
// the free list for the duration of the compile. Only the frozen
// CompiledRegion and plain-value stats escape (the memo retains compile
// outputs forever). A compile that panics never returns its scratch: the
// free list only ever holds scratch from compiles that finished.
func runCompilePipeline(in *compileInput) *compileOutput {
	cs := takeScratch()
	out := cs.compile(in)
	giveScratch(cs)
	return out
}

// compile runs the pipeline over cs's storage.
func (cs *compileScratch) compile(in *compileInput) *compileOutput {
	out := &compileOutput{
		guestInsts: len(in.sb.Insts),
		memOps:     in.sb.NumMemOps(),
	}
	reg, err := cs.xl.Translate(in.sb, &cs.arena)
	if err != nil {
		out.err = err
		return out
	}
	tbl, ds := &cs.tbl, &cs.deps
	tbl.Build(reg, in.blacklist)
	cs.opt.Run(reg, tbl, in.optCfg)
	ds.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, &cs.opt)

	scfg := in.scfg
	sc, err := cs.sched.Run(reg, tbl, ds, scfg)
	if err != nil {
		// Alias register overflow: retry pinned to non-speculation mode,
		// then give up on eliminations entirely. The failed attempt left
		// partial annotations on the ops; clear them first.
		out.overflowRetries++
		resetAnnotations(reg)
		scfg.ForceNonSpec = true
		sc, err = cs.sched.Run(reg, tbl, ds, scfg)
		if err != nil {
			// Re-translate into the same arena (no Reset mid-compile —
			// the failed region's slab space is simply left behind).
			reg, err = cs.xl.Translate(in.sb, &cs.arena)
			if err != nil {
				out.err = err
				return out
			}
			tbl.Build(reg, in.blacklist)
			ds.Compute(reg, tbl)
			sc, err = cs.sched.Run(reg, tbl, ds, scfg)
			if err != nil {
				out.err = fmt.Errorf("dynopt: region B%d cannot be scheduled: %w", in.entry, err)
				return out
			}
		}
	}

	out.numOps = int64(len(reg.Ops))
	// Freeze the schedule and region out of the arena: the compiled
	// region is retained for the lifetime of the system.
	fseq, freg := ir.Freeze(sc.Seq, reg)
	out.cr = in.scfg.Machine.Compile(fseq, freg, len(in.sb.Insts))
	out.alloc = sc.Alloc.Stats
	out.working = cs.sched.WorkingSets(sc, in.sb.NumMemOps())
	out.seqLen = len(sc.Seq)
	return out
}

// runCompilePipelineRef is the retained reference compile path: private
// never-recycled IR and stage values and the heap-based reference
// scheduler. TestCompileFlatMatchesReference drives it
// against runCompilePipeline and requires identical outputs.
func runCompilePipelineRef(in *compileInput) *compileOutput {
	out := &compileOutput{
		guestInsts: len(in.sb.Insts),
		memOps:     in.sb.NumMemOps(),
	}
	reg, err := xlate.Translate(in.sb)
	if err != nil {
		out.err = err
		return out
	}
	tbl := alias.BuildTable(reg, in.blacklist)
	optRes := opt.Run(reg, tbl, in.optCfg)
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)

	scfg := in.scfg
	sc, err := sched.RunRef(reg, tbl, ds, scfg)
	if err != nil {
		out.overflowRetries++
		resetAnnotations(reg)
		scfg.ForceNonSpec = true
		sc, err = sched.RunRef(reg, tbl, ds, scfg)
		if err != nil {
			reg, err = xlate.Translate(in.sb)
			if err != nil {
				out.err = err
				return out
			}
			tbl = alias.BuildTable(reg, in.blacklist)
			ds = deps.Compute(reg, tbl)
			sc, err = sched.RunRef(reg, tbl, ds, scfg)
			if err != nil {
				out.err = fmt.Errorf("dynopt: region B%d cannot be scheduled: %w", in.entry, err)
				return out
			}
		}
	}

	out.numOps = int64(len(reg.Ops))
	out.cr = in.scfg.Machine.Compile(sc.Seq, reg, len(in.sb.Insts))
	out.alloc = sc.Alloc.Stats
	out.working = core.MeasureWorkingSets(sc.Alloc, in.sb.NumMemOps())
	out.seqLen = len(sc.Seq)
	return out
}

// runCompileJob is the fault-domain wrapper every fresh compile runs
// inside (on a worker goroutine or inline): it
// recovers a panicking pipeline into a failed compileOutput — so a host
// bug in one compile can never take down the process or wedge the
// install point — and stamps the content checksum the install-time
// validation recomputes. The chaos knobs are plumbed in as plain values
// drawn on the simulation thread (drawHostFaults); the job itself makes
// no decisions.
func runCompileJob(in *compileInput, panicInject bool, poison faultinject.PoisonMode) (out *compileOutput) {
	defer func() {
		if r := recover(); r != nil {
			out = &compileOutput{
				panicked: true,
				err:      fmt.Errorf("%w: B%d: %v", errCompilePanic, in.entry, r),
			}
		}
	}()
	if panicInject {
		panic("faultinject: injected compile-worker panic")
	}
	out = compilePipeline(in)
	if out.err != nil {
		return out
	}
	if poison == faultinject.PoisonStructure {
		// Corrupt before the checksum stamp: the hash is consistent with
		// the broken contents, so only the structural invariant check can
		// reject it.
		mid := len(out.cr.Seq) / 2
		out.cr.Seq[mid].Dst = ir.VReg(out.cr.Region.NumVRegs + 1<<16)
	}
	out.checksum = out.cr.Checksum()
	if poison == faultinject.PoisonChecksum {
		// Corrupt after the stamp, in a field the structural check does
		// not constrain: only the checksum comparison can reject it.
		out.cr.Seq[0].Imm ^= 0x5a5a5a5a
	}
	return out
}

// memoKey canonically hashes a compile input: every superblock byte plus
// every configuration bit the pipeline reads. Fields that cannot vary
// within one System (the machine model, ablations, hardware mode) are
// still folded: Systems that share a CodeCache may differ in any of them.
// The machine model reaches the schedule and the cycle count through its
// issue widths and latencies; its cost-model fields are read at install
// time, not by the pipeline, so they stay out of the key. Hashing runs on
// the dispatch path at every enqueue, so the sorted pin and blacklist
// encodings reuse the System's buffers instead of allocating.
func (s *System) memoKey(in *compileInput) compilequeue.Key {
	k := compilequeue.NewKey()
	sb := in.sb
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
	k = k.Bool(in.optCfg.LoadElim).Bool(in.optCfg.StoreElim).Bool(in.optCfg.Speculative)
	sc := &in.scfg
	k = k.Int(int64(sc.Mode)).Int(int64(sc.NumAliasRegs)).Bool(sc.StoreReorder).Bool(sc.ForceNonSpec)
	k = k.Int(int64(sc.PressureMargin)).Bool(sc.Alloc.DisableAnti).Bool(sc.Alloc.DisableRotation)
	m := &sc.Machine
	k = k.Int(int64(m.IssueWidth)).Int(int64(m.MemPorts)).Int(int64(m.IntLat)).Int(int64(m.MemLat))
	k = k.Int(int64(m.FPLat)).Int(int64(m.FDivLat)).Int(int64(m.FSqrtLat))
	if len(sc.PinnedOps) == 0 && len(in.blacklist) == 0 {
		// Common case: no pins, no blacklist.
		return k.Int(0).Int(0)
	}
	pins := s.keyPins[:0]
	for op := range sc.PinnedOps {
		pins = append(pins, op)
	}
	slices.Sort(pins)
	k = k.Int(int64(len(pins)))
	for _, op := range pins {
		k = k.Int(int64(op))
	}
	pairs := s.keyPairs[:0]
	for p := range in.blacklist {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b alias.Pair) int {
		if c := cmp.Compare(a.A, b.A); c != 0 {
			return c
		}
		return cmp.Compare(a.B, b.B)
	})
	k = k.Int(int64(len(pairs)))
	for _, p := range pairs {
		k = k.Int(int64(p.A)).Int(int64(p.B))
	}
	s.keyPins, s.keyPairs = pins, pairs
	return k
}

// compileOutputBytes sizes a compile output for the shared cache's byte
// budget by its dominant retained allocation, the frozen compiled region.
func compileOutputBytes(out *compileOutput) int64 {
	if out == nil || out.cr == nil {
		return 0
	}
	return out.cr.Bytes()
}

// drawHostFaults performs the per-fresh-compile host-fault draws, in a
// fixed order on the simulation thread, so the injector's sequence is
// independent of the worker count and host timing. withHang is false on
// the inline path — an inline compile has no watchdog deadline to
// overrun. A drawn hang dominates (the job never finishes,
// so a panic or poison inside it would be unobservable), and a drawn
// panic dominates poison (a panicking job produces no result to poison).
func (s *System) drawHostFaults(entry int, withHang bool) (panicInject, hang bool, poison faultinject.PoisonMode) {
	if s.inj == nil {
		return false, false, faultinject.PoisonNone
	}
	panicInject = s.inj.WorkerPanic()
	if withHang {
		hang = s.inj.CompileHang()
	}
	poison = s.inj.PoisonResult()
	now, tier := s.now(), s.tierOf(entry)
	if hang {
		s.tel.chaosInjected(now, entry, tier, telemetry.CauseWatchdog)
		return false, true, faultinject.PoisonNone
	}
	if panicInject {
		s.tel.chaosInjected(now, entry, tier, telemetry.CauseWorkerPanic)
		return true, false, faultinject.PoisonNone
	}
	if poison != faultinject.PoisonNone {
		s.tel.chaosInjected(now, entry, tier, telemetry.CausePoison)
	}
	return false, false, poison
}

// screenOutput is the pure half of admission, in order: a recovered
// worker panic or the pipeline's own error, then the poisoned-result
// screen — the content checksum recomputed against the worker's stamp,
// and the structural invariants for corruption that predates the stamp,
// including, for an ordered queue of queueRegs registers (0 for other
// hardware), every alias-register offset. A shared-cache leader screens
// before publishing, so a failed or poisoned result never enters the
// shared table.
func screenOutput(entry int, out *compileOutput, queueRegs int) error {
	if out.err != nil {
		return out.err
	}
	if got := out.cr.Checksum(); got != out.checksum {
		return fmt.Errorf("%w: B%d content checksum %#x, stamped %#x", errPoisonedResult, entry, got, out.checksum)
	}
	if verr := out.cr.Validate(); verr != nil {
		return fmt.Errorf("%w: B%d structural invariants: %v", errPoisonedResult, entry, verr)
	}
	if queueRegs > 0 {
		if verr := out.cr.ValidateQueue(queueRegs); verr != nil {
			return fmt.Errorf("%w: B%d structural invariants: %v", errPoisonedResult, entry, verr)
		}
	}
	return nil
}

// admitOutput decides whether a compile result may be installed
// (screenOutput) and accounts a rejection: a worker panic quarantines the
// region — the pipeline provably cannot handle this input — and a
// poisoned result counts as rejected. A rejected result is never memoized
// and never dispatched. Memo hits were admitted when first stored, so
// re-admitting them is a pure double-check.
func (s *System) admitOutput(entry int, out *compileOutput) error {
	err := screenOutput(entry, out, s.cfg.queueRegs())
	switch {
	case out.panicked:
		s.Stats.Compile.WorkerPanics++
		s.recordHostFault(entry, telemetry.CauseWorkerPanic)
		s.quarantineRegion(entry, telemetry.CauseWorkerPanic)
	case errors.Is(err, errPoisonedResult):
		s.Stats.Compile.Rejected++
		s.recordHostFault(entry, telemetry.CausePoison)
	}
	return err
}

// requestCompile compiles a hot region that has no code installed. A
// request-time failure backs the region off (see compileFailBackoff).
// Suppressed requests (a quarantined region, or compilation shed by the
// health controller) do nothing: not compiling is the intended outcome,
// not a failure to back off from.
func (s *System) requestCompile(entry int) {
	if !s.compileAllowed(entry) {
		return
	}
	if err := s.startCompile(entry); err != nil {
		s.compileFailed(entry, false, err)
	}
}

// recompileRegion re-(or newly-)compiles entry after its compile inputs
// changed (a tier move, a hardened pair, a pinned load), cancelling any
// now-stale pending compile first. A request-time failure drops whatever
// code is installed: it is built against the old inputs. When
// compilation is suppressed, the pending compile and the installed code
// are both stale — throw both away; the region re-forms once compiles
// are allowed again.
func (s *System) recompileRegion(entry int) {
	if !s.compileAllowed(entry) {
		s.cancelPending(entry, telemetry.CauseHealth)
		if s.disp[entry].code != nil {
			s.dropCode(entry)
			s.Stats.RegionsDropped++
			s.tel.drop(s.now(), entry, s.tierOf(entry), telemetry.CauseHealth)
		}
		return
	}
	s.cancelPending(entry, telemetry.CauseStale)
	if err := s.startCompile(entry); err != nil {
		s.compileFailed(entry, true, err)
	}
}

// startCompile takes one compile request through the single compile
// flow: snapshot the inputs, look the key up in the memo or the shared
// cache, draw the host faults for a fresh compile, run the job, and
// install the result at its install point. The install point is a pure
// function of the simulated clock and the superblock. With Workers == 0
// the job runs inline and installs at the request's own simulated
// instant: nothing is queued, no hang can be drawn (there is no watchdog
// deadline to overrun), and the install charges Opt/SchedCycles on the
// critical path. Otherwise the job runs on the worker pool and
// drainCompiles installs it once the clock passes readyAt; a live
// pending compile absorbs further requests for the entry. The error
// covers request-time failures only (an injected compile failure, region
// formation); pipeline failures surface at the install point.
func (s *System) startCompile(entry int) error {
	bg := s.bg
	if bg != nil && bg.pending[entry] != nil {
		return nil
	}
	// Every chaos draw happens on the simulation thread, so the injector's
	// sequence is independent of the worker count.
	if s.inj != nil && s.inj.CompileFail() {
		s.tel.chaosInjected(s.now(), entry, s.tierOf(entry), telemetry.CauseCompileFail)
		return fmt.Errorf("%w for B%d", errInjectedCompileFail, entry)
	}
	in, err := s.newCompileInput(entry)
	if err != nil {
		return err
	}
	now := s.now()
	var p *pendingCompile
	var cost int64
	if bg == nil {
		p = &s.inline
		*p = pendingCompile{entry: entry, enqueuedAt: now, readyAt: now}
	} else {
		cost = int64(s.cfg.Machine.CompileCyclesPerInst)*int64(len(in.sb.Insts)) +
			int64(s.cfg.Machine.CompileCyclesPerCheck)*int64(in.sb.NumMemOps())
		bg.seq++
		p = &pendingCompile{
			entry:      entry,
			seq:        bg.seq,
			enqueuedAt: now,
			readyAt:    now + cost,
			deadline:   now + cost*s.cfg.Compile.watchdogFactor(),
		}
	}
	p.recompile = s.disp[entry].code != nil
	s.lookupCompiled(p, in)
	if p.out == nil && !p.deduped {
		s.runFresh(p, in)
	}
	if bg == nil {
		// A follower blocks inline on another tenant's flight. That is
		// safe: leadership is only ever held while the leader runs its
		// compile job, so the flight always completes.
		p.wait()
		s.installPending(p)
		return nil
	}
	bg.pending[entry] = p
	q := append(bg.queue, p)
	for i := len(q) - 1; i > 0; i-- {
		prev := q[i-1]
		if prev.at() < q[i].at() || (prev.at() == q[i].at() && prev.seq < q[i].seq) {
			break
		}
		q[i-1], q[i] = q[i], q[i-1]
	}
	bg.queue = q
	s.Stats.Compile.Enqueued++
	depth := len(bg.pending)
	if depth > s.Stats.Compile.MaxQueueDepth {
		s.Stats.Compile.MaxQueueDepth = depth
	}
	s.tel.compileEnqueue(now, entry, s.tierOf(entry), cost, depth, p.memoHit)
	return nil
}

// lookupCompiled consults the private memo or the shared fleet cache for
// p's input. A hit sets p.out. A shared-cache miss sets p.flight: either
// this request now leads the key's compile, or it joined (p.deduped)
// another tenant's compile of the same key already in flight.
func (s *System) lookupCompiled(p *pendingCompile, in *compileInput) {
	switch {
	case s.cfg.Compile.Memoize:
		// Injected host memory pressure evicts the LRU entry ahead of the
		// lookup, so a previously memoized region may have to recompile.
		if s.inj != nil && s.inj.MemoPressure() && s.cache.EvictOldest() {
			s.tel.chaosInjected(s.now(), p.entry, s.tierOf(p.entry), telemetry.CauseMemoPressure)
			s.tel.memoTable(s.cache.Len(), 1)
		}
		p.key = s.memoKey(in)
		p.out, p.memoHit = s.cache.Get(p.key)
	case s.cache != nil:
		p.key = s.memoKey(in)
		var leader bool
		p.out, p.memoHit, p.flight, leader = s.cache.Lookup(p.key)
		p.deduped = p.flight != nil && !leader
	default:
		return
	}
	if p.memoHit {
		s.Stats.Compile.MemoHits++
	} else {
		s.Stats.Compile.MemoMisses++
	}
	if p.deduped {
		s.Stats.Compile.DedupeWaits++
	}
	s.tel.memoLookup(p.memoHit)
}

// runFresh draws the host faults for a fresh compile and runs its job:
// inline when Workers == 0, else on the worker pool. Host faults
// only strike fresh compiles — a memo hit or a joined flight runs no job
// here, so there is nothing to panic, hang or poison. A shared-cache
// leader publishes its result through the flight; followers on other
// tenants wait on it.
func (s *System) runFresh(p *pendingCompile, in *compileInput) {
	bg := s.bg
	panicInject, hang, poison := s.drawHostFaults(p.entry, bg != nil)
	switch {
	case hang:
		p.hung = true
		if p.flight != nil {
			// A hung leader never runs its job, so it must settle the
			// flight here or followers would wait forever. The synthetic
			// watchdog failure is never inserted (insert=false): the next
			// lookup elects a fresh leader.
			s.cache.Complete(p.key, p.flight, &compileOutput{
				err: fmt.Errorf("%w for B%d", errWatchdogTimeout, p.entry),
			}, false)
			p.flight = nil
		}
	case bg == nil:
		p.out = runCompileJob(in, panicInject, poison)
		if p.flight != nil {
			s.cache.Complete(p.key, p.flight, p.out, screenOutput(p.entry, p.out, s.cfg.queueRegs()) == nil)
		}
	default:
		if bg.pool == nil {
			bg.pool = compilequeue.NewPool(s.cfg.Compile.Workers)
		}
		job, flight, key, cache, queueRegs := p, p.flight, p.key, s.cache, s.cfg.queueRegs()
		if flight == nil {
			p.done = make(chan struct{})
		}
		bg.pool.Submit(func() {
			out := runCompileJob(in, panicInject, poison)
			if flight != nil {
				cache.Complete(key, flight, out, screenOutput(in.entry, out, queueRegs) == nil)
				return
			}
			job.out = out
			close(job.done)
		})
	}
}

// wait blocks until p's result exists: its own job's, or that of the
// shared-cache flight it leads or joined.
func (p *pendingCompile) wait() {
	if p.done != nil {
		<-p.done
	}
	if p.flight != nil {
		<-p.flight.Done()
		if p.out == nil {
			p.out = p.flight.Value()
		}
	}
}

// cancelPending discards entry's pending compile, if any. The worker (if
// still running) finishes into an unread result; the pool drains it at
// Close.
func (s *System) cancelPending(entry int, cause telemetry.Cause) {
	bg := s.bg
	if bg == nil {
		return
	}
	p := bg.pending[entry]
	if p == nil {
		return
	}
	delete(bg.pending, entry)
	for i, q := range bg.queue {
		if q == p {
			bg.queue = append(bg.queue[:i], bg.queue[i+1:]...)
			break
		}
	}
	s.Stats.Compile.Canceled++
	s.tel.compileCancel(s.now(), entry, s.tierOf(entry), cause, len(bg.pending))
}

// drainCompiles installs every pending compilation whose event time the
// simulated clock has passed, in deterministic (event time, enqueue-seq)
// order. This is the only place the simulation thread blocks on a worker
// — and only when the simulated install point has already arrived. Hung
// jobs never block: they have neither a job nor a flight to wait on, and
// the watchdog kills them at their deadline without reading a result.
func (s *System) drainCompiles() {
	bg := s.bg
	if bg == nil {
		return
	}
	now := s.now()
	for len(bg.queue) > 0 && bg.queue[0].at() <= now {
		p := bg.queue[0]
		copy(bg.queue, bg.queue[1:])
		bg.queue = bg.queue[:len(bg.queue)-1]
		delete(bg.pending, p.entry)
		p.wait()
		s.installPending(p)
	}
}

// installPending applies one completed compilation at its install point.
// The lifecycle accounting (CompileStats Installed, Failed, WorkCycles,
// LatencySum) is background-only: an inline compile has no queue to
// account for.
func (s *System) installPending(p *pendingCompile) {
	bg := s.bg
	if p.hung {
		// Watchdog kill at the deadline. The job was never submitted (an
		// injected hang) or its result is simply never read, so the kill
		// point is a pure function of the simulated clock — no blocking,
		// no host-timing dependence. The wasted occupancy up to the
		// deadline is charged as compile work.
		s.Stats.Compile.Failed++
		s.Stats.Compile.WatchdogKills++
		s.Stats.Compile.WorkCycles += p.deadline - p.enqueuedAt
		s.tel.compileInstalled(p.deadline-p.enqueuedAt, len(bg.pending))
		s.recordHostFault(p.entry, telemetry.CauseWatchdog)
		s.compileFailed(p.entry, p.recompile, errWatchdogTimeout)
		return
	}
	latency := s.now() - p.enqueuedAt
	if bg != nil {
		s.Stats.Compile.WorkCycles += p.readyAt - p.enqueuedAt
		s.Stats.Compile.LatencySum += latency
		s.tel.compileInstalled(latency, len(bg.pending))
	}
	if p.deduped {
		s.tel.dedupeWaited(latency)
	}
	if err := s.admitOutput(p.entry, p.out); err != nil {
		if bg != nil {
			s.Stats.Compile.Failed++
		}
		s.compileFailed(p.entry, p.recompile, err)
		return
	}
	if s.cfg.Compile.Memoize && !p.memoHit {
		evicted := s.cache.Evictions()
		s.cache.Put(p.key, p.out)
		s.tel.memoTable(s.cache.Len(), s.cache.Evictions()-evicted)
	}
	s.installOutput(p.entry, p.out, latency)
	if bg != nil {
		s.Stats.Compile.Installed++
	}
}

// compileFailed applies the consequence of a failed compile. When it was
// to replace installed code, that code is built against stale inputs, so
// it is dropped. Otherwise the region cools down before its next attempt
// — except after a worker panic, which quarantined it for good.
func (s *System) compileFailed(entry int, replacing bool, err error) {
	switch {
	case replacing:
		s.dropCode(entry)
		s.Stats.RegionsDropped++
		s.tel.drop(s.now(), entry, s.tierOf(entry), telemetry.CauseCompileFail)
	case !errors.Is(err, errCompilePanic):
		s.compileFailBackoff(entry, err)
	}
}

// installOutput installs a successful compile result: cycle accounting,
// code cache insert (with capacity eviction), per-region statistics and
// the compile telemetry event.
func (s *System) installOutput(entry int, out *compileOutput, latency int64) {
	s.Stats.OverflowRetries += out.overflowRetries
	if s.bg == nil {
		// An inline compile executes on the critical path (the paper's
		// Figure 18 cost); background compilation's occupancy is charged
		// to CompileStats.WorkCycles at the install point instead.
		s.Stats.OptCycles += out.numOps * int64(s.cfg.Machine.OptCyclesPerOp)
		s.Stats.SchedCycles += out.numOps * int64(s.cfg.Machine.SchedCyclesPerOp)
	}
	delete(s.injFailStreak, entry)

	rr := s.recoveryOf(entry)
	recompile := s.disp[entry].code != nil
	if recompile {
		s.Stats.Recompiles++
	} else {
		s.evictForCapacity(entry)
		s.Stats.RegionsCompiled++
	}
	s.setCode(entry, &compiled{
		cr: out.cr, lastUse: s.entrySeq,
		installedAt: s.now(), fresh: true,
	})

	rs := RegionStats{
		Entry:          entry,
		GuestInsts:     out.guestInsts,
		MemOps:         out.memOps,
		Alloc:          out.alloc,
		Working:        out.working,
		SeqLen:         out.seqLen,
		Cycles:         out.cr.Cycles,
		CompileLatency: latency,
		Tier:           rr.tier(),
	}
	if idx, ok := s.regionIdx[entry]; ok {
		s.Stats.Regions[idx] = rs
	} else {
		s.regionIdx[entry] = len(s.Stats.Regions)
		s.Stats.Regions = append(s.Stats.Regions, rs)
	}
	s.tel.regionCompile(s.now(), entry, rr.tier(), recompile, &rs)
}

// compileFailBackoff applies the hot-path cooldown after a failed
// compilation. Genuinely unschedulable regions double their heat
// requirement — the failure is structural and will repeat. Injected chaos
// failures, watchdog kills and rejected poisoned results are transient by
// construction (a host flake, not a property of the region), so they back
// off additively with a bounded streak (reset on the next successful
// install); without the distinction, repeated host faults in a chaos soak
// compound the doubling and pin hot regions in the interpreter for the
// rest of the run.
const injFailStreakCap = 8

func (s *System) compileFailBackoff(entry int, err error) {
	count := s.it.Prof.BlockCounts[entry]
	if errors.Is(err, errInjectedCompileFail) || errors.Is(err, errWatchdogTimeout) ||
		errors.Is(err, errPoisonedResult) {
		streak := s.injFailStreak[entry] + 1
		if streak > injFailStreakCap {
			streak = injFailStreakCap
		}
		s.injFailStreak[entry] = streak
		s.disp[entry].cooldown = count + streak*s.cfg.HotThreshold
		return
	}
	s.disp[entry].cooldown = count * 2
}

// abandonCompiles cancels every still-pending compilation at the end of
// the run and releases the worker pool.
func (s *System) abandonCompiles() {
	bg := s.bg
	if bg == nil {
		return
	}
	for len(bg.queue) > 0 {
		s.cancelPending(bg.queue[0].entry, telemetry.CauseRunEnd)
	}
	if bg.pool != nil {
		if s.cfg.Compile.SharedPool == nil {
			// A fleet-owned pool is still serving other tenants; its
			// creator closes it after every System using it has finished.
			bg.pool.Close()
		}
		bg.pool = nil
	}
}
