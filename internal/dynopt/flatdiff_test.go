package dynopt

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
)

// withRefPipeline runs fn with the compile path swapped to the retained
// reference pipeline. Safe to do between runs: System.Run drains and
// closes its worker pool before returning, so no goroutine reads the
// hook concurrently with the swap.
func withRefPipeline(fn func()) {
	compilePipeline = runCompilePipelineRef
	defer func() { compilePipeline = runCompilePipeline }()
	fn()
}

// diffConfigs covers every hardware mode the scheduler and allocator
// dispatch on.
func diffConfigs() map[string]Config {
	return map[string]Config{
		"smarq64":  ConfigSMARQ(64),
		"smarq16":  ConfigSMARQ(16),
		"alat":     ConfigALAT(),
		"efficeon": ConfigEfficeon(),
		"nohw":     ConfigNoHW(),
	}
}

// TestCompileFlatMatchesReference is the tentpole's correctness gate:
// the flat-arena pipeline (reused IR arena, CLZ-bitmap scheduler, reused
// alias/deps/opt/sched stage values, frozen install) must be
// observationally identical to the retained reference pipeline (private
// allocations, heap scheduler, no reuse) — same schedules, alias assignments,
// stats, memo keys and guest state, across hardware modes and chaos
// seeds.
func TestCompileFlatMatchesReference(t *testing.T) {
	for name, cfg := range diffConfigs() {
		for _, arm := range []struct {
			name string
			seed int64
		}{{"plain", 0}, {"chaos", 11}, {"chaos2", 29}} {
			t.Run(name+"/"+arm.name, func(t *testing.T) {
				mk := func() Config {
					c := cfg
					c.Compile.Workers = 2
					c.Compile.Memoize = true
					if arm.seed != 0 {
						c.Chaos = faultinject.Default(arm.seed)
						c.CheckInvariants = true
					}
					return c
				}
				prog := func() *guest.Program { return aliasingProgram(1500, 7) }
				flat := runInstrumented(t, prog(), 1<<16, mk())
				var ref *bgRun
				withRefPipeline(func() {
					ref = runInstrumented(t, prog(), 1<<16, mk())
				})
				if !reflect.DeepEqual(flat.sys.Stats, ref.sys.Stats) {
					t.Errorf("stats diverge:\nflat: %+v\nref:  %+v", flat.sys.Stats, ref.sys.Stats)
				}
				if !bytes.Equal(flat.trace, ref.trace) {
					t.Error("event trace diverges between flat and reference pipelines")
				}
				if !bytes.Equal(flat.metrics, ref.metrics) {
					t.Error("metrics snapshot diverges between flat and reference pipelines")
				}
				snap := faultinject.Capture(ref.st, ref.mem)
				if err := snap.Verify(flat.st, flat.mem); err != nil {
					t.Errorf("guest state diverges: %v", err)
				}

				// Per-compile differential over every superblock the run
				// formed: both pipelines on identical inputs must agree
				// field-for-field on the compiled region, alias
				// annotations, allocation stats and working sets, and
				// must leave the input (hence its memo key) untouched.
				entries := make([]int, 0, len(flat.sys.sbCache))
				for entry := range flat.sys.sbCache {
					entries = append(entries, entry)
				}
				sort.Ints(entries)
				for _, entry := range entries {
					in, err := flat.sys.newCompileInput(entry)
					if err != nil {
						t.Fatal(err)
					}
					keyBefore := flat.sys.memoKey(in)
					fout := runCompilePipeline(in)
					rout := runCompilePipelineRef(in)
					if keyAfter := flat.sys.memoKey(in); keyAfter != keyBefore {
						t.Errorf("B%d: pipeline mutated its input: memo key %x -> %x", entry, keyBefore, keyAfter)
					}
					compareOutputs(t, entry, fout, rout)
				}
			})
		}
	}
}

func compareOutputs(t *testing.T, entry int, flat, ref *compileOutput) {
	t.Helper()
	pfx := fmt.Sprintf("B%d: ", entry)
	if (flat.err == nil) != (ref.err == nil) {
		t.Fatalf("%serr mismatch: %v vs %v", pfx, flat.err, ref.err)
	}
	if flat.err != nil {
		if flat.err.Error() != ref.err.Error() {
			t.Errorf("%serror text %q vs %q", pfx, flat.err, ref.err)
		}
		return
	}
	if flat.alloc != ref.alloc {
		t.Errorf("%salloc stats %+v vs %+v", pfx, flat.alloc, ref.alloc)
	}
	if flat.working != ref.working {
		t.Errorf("%sworking sets %+v vs %+v", pfx, flat.working, ref.working)
	}
	if flat.seqLen != ref.seqLen || flat.numOps != ref.numOps ||
		flat.guestInsts != ref.guestInsts || flat.memOps != ref.memOps ||
		flat.overflowRetries != ref.overflowRetries {
		t.Errorf("%sscalar outputs (%d,%d,%d,%d,%d) vs (%d,%d,%d,%d,%d)", pfx,
			flat.seqLen, flat.numOps, flat.guestInsts, flat.memOps, flat.overflowRetries,
			ref.seqLen, ref.numOps, ref.guestInsts, ref.memOps, ref.overflowRetries)
	}
	fcr, rcr := flat.cr, ref.cr
	if fcr.Cycles != rcr.Cycles || fcr.GuestInsts != rcr.GuestInsts {
		t.Errorf("%scompiled region cycles/insts (%d,%d) vs (%d,%d)", pfx,
			fcr.Cycles, fcr.GuestInsts, rcr.Cycles, rcr.GuestInsts)
	}
	if len(fcr.Seq) != len(rcr.Seq) {
		t.Fatalf("%sseq length %d vs %d", pfx, len(fcr.Seq), len(rcr.Seq))
	}
	for i := range fcr.Seq {
		g, w := fcr.Seq[i], rcr.Seq[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.GOp != w.GOp || g.Dst != w.Dst ||
			g.AROffset != w.AROffset || g.P != w.P || g.C != w.C || g.ARMask != w.ARMask ||
			g.Amount != w.Amount || g.SrcOff != w.SrcOff || g.DstOff != w.DstOff ||
			g.Imm != w.Imm || g.OnTraceTaken != w.OnTraceTaken || g.OffTrace != w.OffTrace {
			t.Fatalf("%sseq[%d] differs:\n  flat %+v\n  ref  %+v", pfx, i, *g, *w)
		}
		if len(g.Srcs) != len(w.Srcs) {
			t.Fatalf("%sseq[%d]: %d srcs vs %d", pfx, i, len(g.Srcs), len(w.Srcs))
		}
		for j := range g.Srcs {
			if g.Srcs[j] != w.Srcs[j] || g.SrcFloat[j] != w.SrcFloat[j] {
				t.Fatalf("%sseq[%d]: operand %d differs", pfx, i, j)
			}
		}
		if (g.Mem == nil) != (w.Mem == nil) {
			t.Fatalf("%sseq[%d]: mem presence differs", pfx, i)
		}
		if g.Mem != nil && *g.Mem != *w.Mem {
			t.Fatalf("%sseq[%d]: mem %+v vs %+v", pfx, i, *g.Mem, *w.Mem)
		}
	}
	freg, rreg := fcr.Region, rcr.Region
	if freg.NumVRegs != rreg.NumVRegs || freg.Entry != rreg.Entry ||
		freg.FinalTarget != rreg.FinalTarget || freg.IntOut != rreg.IntOut ||
		freg.FloatOut != rreg.FloatOut || len(freg.Ops) != len(rreg.Ops) {
		t.Fatalf("%sregion headers differ", pfx)
	}
	for i := range freg.Ops {
		g, w := freg.Ops[i], rreg.Ops[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.AROffset != w.AROffset ||
			g.P != w.P || g.C != w.C || g.ARMask != w.ARMask {
			t.Errorf("%sregion op %d annotations differ: (%d,%v,%v,%x) vs (%d,%v,%v,%x)", pfx,
				i, g.AROffset, g.P, g.C, g.ARMask, w.AROffset, w.P, w.C, w.ARMask)
		}
	}
}
