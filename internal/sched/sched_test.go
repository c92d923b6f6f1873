package sched

import (
	"testing"

	"smarq/internal/alias"
	"smarq/internal/core"
	"smarq/internal/deps"
	"smarq/internal/guest"
	"smarq/internal/ir"
	"smarq/internal/opt"
	"smarq/internal/vliw"
)

// spec describes one op for the test region builder: 'L' load, 'S' store,
// each with a root vreg; 'a' arith consuming the previous op's result.
type spec struct {
	kind byte
	root ir.VReg
}

func buildRegion(specs []spec) *ir.Region {
	r := &ir.Region{NumVRegs: 512}
	next := ir.VReg(100)
	var prevDst ir.VReg = 1
	for i, s := range specs {
		o := &ir.Op{ID: i, Dst: ir.NoVReg, AROffset: -1}
		switch s.kind {
		case 'L':
			o.Kind = ir.Load
			o.GOp = guest.Ld8
			o.Dst = next
			next++
			o.Srcs = []ir.VReg{s.root}
			o.SrcFloat = []bool{false}
			o.Mem = &ir.MemInfo{Base: s.root, Size: 8, Root: s.root}
			prevDst = o.Dst
		case 'S':
			o.Kind = ir.Store
			o.GOp = guest.St8
			o.Srcs = []ir.VReg{2, s.root}
			o.SrcFloat = []bool{false, false}
			o.Mem = &ir.MemInfo{Base: s.root, Size: 8, Root: s.root}
		case 'a': // consumes the previous destination
			o.Kind = ir.Arith
			o.GOp = guest.Addi
			o.Dst = next
			next++
			o.Srcs = []ir.VReg{prevDst}
			o.SrcFloat = []bool{false}
			prevDst = o.Dst
		}
		r.Ops = append(r.Ops, o)
	}
	return r
}

func pipeline(t *testing.T, reg *ir.Region, optCfg opt.Config, schedCfg Config) *Schedule {
	t.Helper()
	tbl := alias.BuildTable(reg, nil)
	optRes := opt.Run(reg, tbl, optCfg)
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)
	sc, err := Run(reg, tbl, ds, schedCfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func defaultCfg(mode HWMode) Config {
	return Config{
		Mode:           mode,
		NumAliasRegs:   64,
		StoreReorder:   true,
		PressureMargin: 4,
		Machine:        vliw.DefaultConfig(),
	}
}

func seqPos(sc *Schedule, id int) int {
	for i, op := range sc.Seq {
		if op.ID == id {
			return i
		}
	}
	return -1
}

func TestHoistLoadAboveStore(t *testing.T) {
	// st [v1]; ld [v2]; consumer chain — with alias HW the load hoists.
	reg := buildRegion([]spec{{'S', 1}, {'L', 2}, {'a', 0}, {'a', 0}})
	sc := pipeline(t, reg, opt.Config{}, defaultCfg(HWOrdered))
	if seqPos(sc, 1) > seqPos(sc, 0) {
		t.Errorf("load not hoisted above may-alias store:\n%v", sc.Seq)
	}
	if !reg.Ops[1].P {
		t.Error("hoisted load lacks P bit")
	}
	if !reg.Ops[0].C {
		t.Error("demoted store lacks C bit")
	}
	if err := core.VerifyOrders(sc.Alloc); err != nil {
		t.Error(err)
	}
}

func TestNoHWKeepsOrder(t *testing.T) {
	reg := buildRegion([]spec{{'S', 1}, {'L', 2}, {'a', 0}})
	sc := pipeline(t, reg, opt.Config{}, defaultCfg(HWNone))
	if seqPos(sc, 1) < seqPos(sc, 0) {
		t.Error("load reordered above may-alias store without alias HW")
	}
	if sc.Alloc.Stats.PBits != 0 {
		t.Errorf("P bits = %d without alias HW, want 0", sc.Alloc.Stats.PBits)
	}
}

func TestProvablyDisjointReordersWithoutHW(t *testing.T) {
	// Same root, disjoint offsets: no dependence, so even HWNone may
	// reorder by priority.
	reg := &ir.Region{NumVRegs: 512}
	st := &ir.Op{ID: 0, Kind: ir.Store, GOp: guest.St8, Dst: ir.NoVReg,
		Srcs: []ir.VReg{2, 1}, SrcFloat: []bool{false, false},
		Mem: &ir.MemInfo{Base: 1, Size: 8, Root: 1, RootOff: 0}, AROffset: -1}
	ld := &ir.Op{ID: 1, Kind: ir.Load, GOp: guest.Ld8, Dst: 100,
		Srcs: []ir.VReg{1}, SrcFloat: []bool{false},
		Mem: &ir.MemInfo{Base: 1, Size: 8, Root: 1, RootOff: 8}, AROffset: -1}
	use := &ir.Op{ID: 2, Kind: ir.Arith, GOp: guest.Addi, Dst: 101,
		Srcs: []ir.VReg{100}, SrcFloat: []bool{false}, AROffset: -1}
	reg.Ops = []*ir.Op{st, ld, use}
	sc := pipeline(t, reg, opt.Config{}, defaultCfg(HWNone))
	if seqPos(sc, 1) > seqPos(sc, 0) {
		t.Error("provably disjoint load not reordered")
	}
	if sc.Alloc.Stats.Checks != 0 {
		t.Error("disjoint reorder produced checks")
	}
}

func TestALATStoreStoreStaysOrdered(t *testing.T) {
	// Two may-alias stores, the second feeding nothing: the first has a
	// long-latency value chain so reversing them would be profitable —
	// but ALAT cannot check store-store reordering.
	reg := buildRegion([]spec{{'L', 3}, {'a', 0}, {'S', 1}, {'S', 2}})
	// Make store 2 depend on the arith chain so it would naturally sink.
	reg.Ops[2].Srcs[0] = reg.Ops[1].Dst
	sc := pipeline(t, reg, opt.Config{}, defaultCfg(HWALAT))
	if seqPos(sc, 2) > seqPos(sc, 3) {
		t.Error("ALAT reordered may-alias stores")
	}
}

func TestALATLoadHoists(t *testing.T) {
	reg := buildRegion([]spec{{'S', 1}, {'L', 2}, {'a', 0}})
	sc := pipeline(t, reg, opt.Config{}, defaultCfg(HWALAT))
	if seqPos(sc, 1) > seqPos(sc, 0) {
		t.Error("ALAT failed to hoist load above store")
	}
}

func TestStoreReorderDisabled(t *testing.T) {
	reg := buildRegion([]spec{{'L', 3}, {'a', 0}, {'S', 1}, {'S', 2}})
	reg.Ops[2].Srcs[0] = reg.Ops[1].Dst // store 2 sinks naturally if allowed
	cfg := defaultCfg(HWOrdered)
	cfg.StoreReorder = false
	sc := pipeline(t, reg, opt.Config{}, cfg)
	if seqPos(sc, 2) > seqPos(sc, 3) {
		t.Error("stores reordered with StoreReorder disabled")
	}

	// With store reordering on, store 3 should hoist above the stalled
	// store 2.
	reg2 := buildRegion([]spec{{'L', 3}, {'a', 0}, {'S', 1}, {'S', 2}})
	reg2.Ops[2].Srcs[0] = reg2.Ops[1].Dst
	sc2 := pipeline(t, reg2, opt.Config{}, defaultCfg(HWOrdered))
	if seqPos(sc2, 2) < seqPos(sc2, 3) {
		t.Error("stores not reordered with StoreReorder enabled")
	}
}

func TestForceNonSpecKeepsMemoryOrder(t *testing.T) {
	reg := buildRegion([]spec{{'S', 1}, {'L', 2}, {'S', 3}, {'L', 4}})
	cfg := defaultCfg(HWOrdered)
	cfg.ForceNonSpec = true
	sc := pipeline(t, reg, opt.Config{}, cfg)
	last := -1
	for _, op := range sc.Seq {
		if op.IsMem() {
			if op.ID < last {
				t.Fatalf("memory order violated under ForceNonSpec:\n%v", sc.Seq)
			}
			last = op.ID
		}
	}
	if sc.NonSpecCycles == 0 {
		t.Error("NonSpecCycles not counted")
	}
}

func TestPressureSwitchesToNonSpec(t *testing.T) {
	// Many independent loads before one store that may-alias all of them:
	// with only 4 alias registers the scheduler must throttle reordering
	// rather than overflow.
	var specs []spec
	specs = append(specs, spec{'S', 1})
	for i := 0; i < 12; i++ {
		specs = append(specs, spec{'L', ir.VReg(2 + i)})
	}
	specs = append(specs, spec{'S', 30})
	reg := buildRegion(specs)
	cfg := defaultCfg(HWOrdered)
	cfg.NumAliasRegs = 4
	cfg.PressureMargin = 1
	sc := pipeline(t, reg, opt.Config{}, cfg)
	if sc.NonSpecCycles == 0 {
		t.Error("scheduler never throttled despite 4 registers")
	}
	if sc.Alloc.Stats.WorkingSet > 4 {
		t.Errorf("working set %d exceeds 4 registers", sc.Alloc.Stats.WorkingSet)
	}
	if err := core.VerifyOrders(sc.Alloc); err != nil {
		t.Error(err)
	}
}

func TestEliminatedStorePlaceholderDropped(t *testing.T) {
	// Two must-alias stores: the first is eliminated; its placeholder
	// must not appear in the final sequence.
	reg := buildRegion([]spec{{'S', 1}, {'S', 1}})
	sc := pipeline(t, reg, opt.Config{StoreElim: true, Speculative: true}, defaultCfg(HWOrdered))
	if len(sc.Seq) != 1 {
		t.Fatalf("sequence = %v, want just the surviving store", sc.Seq)
	}
	if sc.Seq[0].ID != 1 {
		t.Error("wrong store survived")
	}
}

func TestLoadElimThroughSchedule(t *testing.T) {
	// ld [v1]; st [v2] (may alias); ld [v1] eliminated — the surviving
	// store must check the forwarding source even though nothing was
	// reordered.
	reg := buildRegion([]spec{{'L', 1}, {'S', 2}, {'L', 1}})
	sc := pipeline(t, reg,
		opt.Config{LoadElim: true, Speculative: true}, defaultCfg(HWOrdered))
	if !reg.Ops[0].P {
		t.Error("forwarding source lacks P bit")
	}
	if !reg.Ops[1].C {
		t.Error("intervening store lacks C bit")
	}
	foundCopy := false
	for _, op := range sc.Seq {
		if op.Kind == ir.Copy {
			foundCopy = true
		}
	}
	if !foundCopy {
		t.Error("eliminated load's copy missing from schedule")
	}
	if err := core.VerifyOrders(sc.Alloc); err != nil {
		t.Error(err)
	}
}

func TestDeterministicSchedules(t *testing.T) {
	mk := func() *Schedule {
		reg := buildRegion([]spec{{'S', 1}, {'L', 2}, {'a', 0}, {'S', 3}, {'L', 4}, {'a', 0}})
		return pipeline(t, reg, opt.Config{LoadElim: true, StoreElim: true, Speculative: true},
			defaultCfg(HWOrdered))
	}
	a, b := mk(), mk()
	if len(a.Seq) != len(b.Seq) {
		t.Fatal("schedule lengths differ across runs")
	}
	for i := range a.Seq {
		if a.Seq[i].ID != b.Seq[i].ID || a.Seq[i].Kind != b.Seq[i].Kind {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a.Seq[i], b.Seq[i])
		}
	}
}

func TestGuardsScheduleFreely(t *testing.T) {
	reg := buildRegion([]spec{{'L', 1}, {'a', 0}})
	g := &ir.Op{ID: 2, Kind: ir.Guard, GOp: guest.Bne, Dst: ir.NoVReg,
		Srcs: []ir.VReg{3, 4}, SrcFloat: []bool{false, false}, AROffset: -1}
	reg.Ops = append(reg.Ops, g)
	sc := pipeline(t, reg, opt.Config{}, defaultCfg(HWOrdered))
	if len(sc.Seq) != 3 {
		t.Fatalf("sequence length = %d, want 3", len(sc.Seq))
	}
}

func TestPinnedOpsBlockSpeculation(t *testing.T) {
	reg := buildRegion([]spec{{'S', 1}, {'L', 2}, {'a', 0}})
	tbl := alias.BuildTable(reg, nil)
	ds := deps.Compute(reg, tbl)
	cfg := defaultCfg(HWOrdered)
	cfg.PinnedOps = map[int]bool{1: true} // the load must not be advanced
	sc, err := Run(reg, tbl, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seqPos(sc, 1) < seqPos(sc, 0) {
		t.Error("pinned load was hoisted above the may-alias store")
	}
	if reg.Ops[1].P {
		t.Error("pinned load still sets an alias register")
	}
}

func TestOverflowPropagates(t *testing.T) {
	// Backward (extended) deps force P bits even in program order, so a
	// tiny register file must overflow and Run must report it.
	reg := buildRegion([]spec{{'L', 1}, {'L', 2}, {'L', 3}, {'S', 4}, {'S', 5}, {'S', 6}})
	tbl := alias.BuildTable(reg, nil)
	ds := deps.NewSet()
	// Three eliminations' worth of backward deps: each store checks each
	// load, all live simultaneously.
	for _, p := range [][2]int{{3, 0}, {4, 1}, {5, 2}, {3, 1}, {4, 2}, {5, 0}} {
		ds.Add(deps.Dep{Src: p[0], Dst: p[1], Rel: alias.MayAlias,
			Extended: true, SrcIsStore: true})
	}
	cfg := defaultCfg(HWOrdered)
	cfg.NumAliasRegs = 2
	cfg.PressureMargin = 0
	cfg.ForceNonSpec = true // pressure throttling can't shed forced P bits
	if _, err := Run(reg, tbl, ds, cfg); err == nil {
		t.Error("overflow not reported")
	}
}

func TestNonSpecStillAllowsNonMemReordering(t *testing.T) {
	// ForceNonSpec constrains memory order only; arithmetic still moves.
	reg := buildRegion([]spec{{'L', 1}, {'a', 0}, {'S', 2}, {'L', 3}})
	tbl := alias.BuildTable(reg, nil)
	ds := deps.Compute(reg, tbl)
	cfg := defaultCfg(HWOrdered)
	cfg.ForceNonSpec = true
	sc, err := Run(reg, tbl, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for _, op := range sc.Seq {
		if op.IsMem() {
			if op.ID < last {
				t.Fatal("memory order violated")
			}
			last = op.ID
		}
	}
}

func TestBitmaskModeSchedules(t *testing.T) {
	reg := buildRegion([]spec{{'S', 1}, {'L', 2}, {'a', 0}, {'a', 0}})
	sc := pipeline(t, reg, opt.Config{}, defaultCfg(HWBitmask))
	if seqPos(sc, 1) > seqPos(sc, 0) {
		t.Error("bitmask mode did not hoist the load")
	}
	if !reg.Ops[1].P || reg.Ops[1].AROffset < 0 {
		t.Error("hoisted load has no named register")
	}
	if !reg.Ops[0].C || reg.Ops[0].ARMask == 0 {
		t.Error("demoted store has no check mask")
	}
	// No rotates or AMOVs ever appear in bitmask schedules.
	for _, op := range sc.Seq {
		if op.Kind == ir.Rotate || op.Kind == ir.AMov {
			t.Errorf("bitmask schedule contains %v", op.Kind)
		}
	}
}

func TestBitmaskModeThrottlesUnderPressure(t *testing.T) {
	// 30 loads that would all need registers across a trailing store:
	// the live-count pressure must throttle instead of failing.
	var specs []spec
	specs = append(specs, spec{'S', 1})
	for i := 0; i < 30; i++ {
		specs = append(specs, spec{'L', ir.VReg(2 + i)})
	}
	specs = append(specs, spec{'S', 40})
	reg := buildRegion(specs)
	cfg := defaultCfg(HWBitmask)
	cfg.NumAliasRegs = 15
	cfg.PressureMargin = 2
	sc := pipeline(t, reg, opt.Config{}, cfg)
	if sc.Alloc.Stats.WorkingSet > 15 {
		t.Errorf("working set %d exceeds the encoding cap", sc.Alloc.Stats.WorkingSet)
	}
	if sc.NonSpecCycles == 0 {
		t.Error("bitmask pressure never throttled")
	}
}

func TestBitmaskStoreReorderAllowed(t *testing.T) {
	// Table 1: Efficeon detects store-store aliases, so stores reorder.
	reg := buildRegion([]spec{{'L', 3}, {'a', 0}, {'S', 1}, {'S', 2}})
	reg.Ops[2].Srcs[0] = reg.Ops[1].Dst // store 2 sinks if reordering allowed
	sc := pipeline(t, reg, opt.Config{}, defaultCfg(HWBitmask))
	if seqPos(sc, 2) < seqPos(sc, 3) {
		t.Error("bitmask mode failed to reorder may-alias stores")
	}
}

// TestRunSteadyStateAllocs pins the scheduler's steady-state allocation
// behavior: with the node array, CSR edge buffers, worklists, ready
// bitmaps, allocator, constraint graph and result all owned by a reused
// Scratch, repeated Run calls on a typical region must stay within a
// small fixed budget (the Schedule and the AMOV/rotate pseudo-ops still
// allocate; the per-op scheduling machinery must not).
func TestRunSteadyStateAllocs(t *testing.T) {
	var specs []spec
	for i := 0; i < 16; i++ {
		specs = append(specs, spec{'L', ir.VReg(i + 1)}, spec{'a', 0}, spec{'S', ir.VReg(i + 1)})
	}
	reg := buildRegion(specs)
	tbl := alias.BuildTable(reg, nil)
	ds := deps.Compute(reg, tbl)
	cfg := defaultCfg(HWOrdered)
	var scr Scratch
	run := func() {
		if _, err := scr.Run(reg, tbl, ds, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the scratch to the region's size
	allocs := testing.AllocsPerRun(50, run)
	// Before the scheduler reused its storage it made several hundred
	// allocations on this region.
	if allocs > 30 {
		t.Errorf("Scratch.Run allocates %.1f times per call, want <= 30", allocs)
	}
}
