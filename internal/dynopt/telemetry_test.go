package dynopt

import (
	"bytes"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
)

// captureSink accumulates every event a tracer streams out (tests only).
type captureSink struct{ events []telemetry.Event }

func (s *captureSink) WriteEvents(evs []telemetry.Event) error {
	s.events = append(s.events, evs...)
	return nil
}
func (s *captureSink) Close() error { return nil }

// fanSink forwards one event stream to several sinks, so a single run can
// produce JSONL and Chrome encodings of identical events.
type fanSink struct{ sinks []telemetry.Sink }

func (s *fanSink) WriteEvents(evs []telemetry.Event) error {
	for _, sub := range s.sinks {
		if err := sub.WriteEvents(evs); err != nil {
			return err
		}
	}
	return nil
}

func (s *fanSink) Close() error {
	for _, sub := range s.sinks {
		if err := sub.Close(); err != nil {
			return err
		}
	}
	return nil
}

// TestTraceDeterminism: two identical runs (same program, config and
// chaos seed) must produce byte-identical JSONL traces, Chrome traces and
// metrics snapshots — the property that makes traces diffable across CI
// reruns and bisections.
func TestTraceDeterminism(t *testing.T) {
	runOnce := func() (jsonl, chrome, metrics []byte) {
		var jb, cb, mb bytes.Buffer
		cfg := ConfigSMARQ(16)
		cfg.Chaos = faultinject.Default(11)
		tel := &telemetry.Telemetry{
			Events:  telemetry.NewTracer(0, &fanSink{sinks: []telemetry.Sink{telemetry.NewJSONLSink(&jb), telemetry.NewChromeSink(&cb)}}),
			Metrics: telemetry.NewRegistry(),
		}
		cfg.Telemetry = tel
		sys := New(aliasingProgram(2500, 7), &guest.State{}, guest.NewMemory(1<<16), cfg)
		if halted, err := sys.Run(50_000_000); err != nil || !halted {
			t.Fatalf("halted=%v err=%v", halted, err)
		}
		if err := tel.Events.Close(); err != nil {
			t.Fatalf("close tracer: %v", err)
		}
		if err := tel.Metrics.WriteJSON(&mb); err != nil {
			t.Fatalf("write metrics: %v", err)
		}
		return jb.Bytes(), cb.Bytes(), mb.Bytes()
	}

	j1, c1, m1 := runOnce()
	j2, c2, m2 := runOnce()
	if len(j1) == 0 || !bytes.Contains(j1, []byte(`"ev":"rollback"`)) {
		t.Fatalf("trace looks inert: %d bytes, no rollbacks", len(j1))
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSONL traces differ across identical runs (%d vs %d bytes)", len(j1), len(j2))
	}
	if !bytes.Equal(c1, c2) {
		t.Errorf("Chrome traces differ across identical runs (%d vs %d bytes)", len(c1), len(c2))
	}
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics snapshots differ across identical runs:\n%s\nvs\n%s", m1, m2)
	}
}

// TestTelemetryMatchesStats is the observability layer's consistency
// guarantee under chaos: every counter in the metrics registry and every
// event in the trace must agree with the run's own Stats accounting —
// per-tier dispatches sum to the outcome totals, ladder moves match the
// recovery counters, and residency is consistent at end of run.
func TestTelemetryMatchesStats(t *testing.T) {
	progs := map[string]*guest.Program{
		"sumloop":  sumLoopProgram(3000),
		"aliasing": aliasingProgram(3000, 5),
	}
	for name, prog := range progs {
		for _, seed := range []int64{1, 2, 3} {
			cfg := ConfigSMARQ(64)
			cfg.Chaos = faultinject.Default(seed)
			cfg.CheckInvariants = true
			sink := &captureSink{}
			reg := telemetry.NewRegistry()
			cfg.Telemetry = &telemetry.Telemetry{Events: telemetry.NewTracer(0, sink), Metrics: reg}
			sys := New(prog, &guest.State{}, guest.NewMemory(1<<16), cfg)
			if halted, err := sys.Run(50_000_000); err != nil || !halted {
				t.Fatalf("%s/seed%d: halted=%v err=%v", name, seed, halted, err)
			}
			if err := cfg.Telemetry.Events.Flush(); err != nil {
				t.Fatalf("%s/seed%d: flush: %v", name, seed, err)
			}
			st := &sys.Stats

			// Tally the event stream.
			var byKind [16]int64
			var demoteRungs, promotes int64
			for _, e := range sink.events {
				byKind[e.Kind]++
				switch e.Kind {
				case telemetry.KindDemote:
					demoteRungs += int64(e.To - e.Tier)
				case telemetry.KindPromote:
					promotes++
				}
			}

			// Per-tier dispatches sum to the outcome totals: every
			// compiled dispatch ends in exactly one of the four outcomes,
			// and pinned "dispatches" are interpreted entries.
			var compiledDispatches int64
			for tier := TierFull; tier < TierPinned; tier++ {
				compiledDispatches += st.Recovery.TierDispatches[tier]
			}
			outcomes := st.Commits + st.AliasExceptions + st.GuardFails + st.Faults
			if compiledDispatches != outcomes {
				t.Errorf("%s/seed%d: compiled dispatches %d != outcome total %d",
					name, seed, compiledDispatches, outcomes)
			}

			if byKind[telemetry.KindCompile] == 0 {
				t.Errorf("%s/seed%d: no compile events", name, seed)
			}

			// Trace events agree with Stats.
			checks := []struct {
				what string
				got  int64
				want int64
			}{
				{"dispatch events", byKind[telemetry.KindDispatch], compiledDispatches},
				{"commit events", byKind[telemetry.KindCommit], st.Commits},
				{"rollback events", byKind[telemetry.KindRollback], st.AliasExceptions + st.GuardFails + st.Faults},
				{"guard-fail events", byKind[telemetry.KindGuardFail], st.GuardFails},
				{"promote events", promotes, st.Recovery.Promotions},
				{"demoted rungs", demoteRungs, st.Recovery.Demotions},
				{"evict events", byKind[telemetry.KindEvict], st.Recovery.Evictions},
				{"chaos events", byKind[telemetry.KindChaos],
					st.Injected.SpuriousAliases + st.Injected.GuardFails + st.Injected.CompileFails + st.Injected.Corruptions},
				{"compile events", byKind[telemetry.KindCompile], int64(st.RegionsCompiled + st.Recompiles)},
				// Injected exceptions carry no violated pair, so only
				// genuine ones emit an alias-exception event.
				{"alias-exception events", byKind[telemetry.KindAliasException], st.AliasExceptions - st.Injected.SpuriousAliases},

				// The metrics registry agrees with both.
				{"commits counter", reg.Counter(mCommits).Value(), st.Commits},
				{"rollbacks counter", reg.Counter(mRollbacks).Value(), st.AliasExceptions + st.GuardFails + st.Faults},
				{"alias-exceptions counter", reg.Counter(mAliasExceptions).Value(), st.AliasExceptions},
				{"guard-fails counter", reg.Counter(mGuardFails).Value(), st.GuardFails},
				{"faults counter", reg.Counter(mFaults).Value(), st.Faults},
				{"dispatches counter", reg.Counter(mDispatches).Value(), compiledDispatches},
				{"demotions counter", reg.Counter(mDemotions).Value(), st.Recovery.Demotions},
				{"promotions counter", reg.Counter(mPromotions).Value(), st.Recovery.Promotions},
				{"evictions counter", reg.Counter(mEvictions).Value(), st.Recovery.Evictions},
				{"interp-insts counter", reg.Counter(mInterpInsts).Value(), st.InterpretedInsts},
				{"compiles+recompiles counters", reg.Counter(mCompiles).Value() + reg.Counter(mRecompiles).Value(),
					int64(st.RegionsCompiled + st.Recompiles)},
			}
			for _, c := range checks {
				if c.got != c.want {
					t.Errorf("%s/seed%d: %s = %d, Stats say %d", name, seed, c.what, c.got, c.want)
				}
			}

			// The labeled per-tier dispatch series agree with the Stats
			// split. Only compiled tiers dispatch through runRegion; the
			// pinned rung's "dispatches" are interpreted entries and never
			// touch the dispatch instruments.
			for tier := TierFull; tier < TierPinned; tier++ {
				key := telemetry.Labeled(mTierFamily,
					telemetry.Label{Name: "tier", Value: tier.String()})
				if got := reg.Counter(key).Value(); got != st.Recovery.TierDispatches[tier] {
					t.Errorf("%s/seed%d: %s = %d, Stats say %d",
						name, seed, key, got, st.Recovery.TierDispatches[tier])
				}
			}
			pinKey := telemetry.Labeled(mTierFamily,
				telemetry.Label{Name: "tier", Value: TierPinned.String()})
			if got := reg.Counter(pinKey).Value(); got != 0 {
				t.Errorf("%s/seed%d: pinned tier counter = %d, want 0 (interpreted entries)",
					name, seed, got)
			}

			// End-of-run residency is internally consistent.
			rec := &st.Recovery
			if rec.PinnedRegions != rec.TierRegions[TierPinned] {
				t.Errorf("%s/seed%d: PinnedRegions %d != TierRegions[pinned] %d",
					name, seed, rec.PinnedRegions, rec.TierRegions[TierPinned])
			}
			var perRegionDem, perRegionProm int64
			for _, rs := range st.Regions {
				perRegionDem += int64(rs.Demotions)
				perRegionProm += int64(rs.Promotions)
			}
			if perRegionDem != rec.Demotions {
				t.Errorf("%s/seed%d: per-region demotions %d != Recovery.Demotions %d",
					name, seed, perRegionDem, rec.Demotions)
			}
			if perRegionProm != rec.Promotions {
				t.Errorf("%s/seed%d: per-region promotions %d != Recovery.Promotions %d",
					name, seed, perRegionProm, rec.Promotions)
			}
		}
	}
}

// commitLoopProgram is a single hot loop with loads and stores and no
// setup loop, so the system's code cache ends up with exactly one region
// and a budget-stopped run parks the guest at its entry.
func commitLoopProgram(n int64) *guest.Program {
	b := guest.NewBuilder()
	b.NewBlock()
	b.Li(1, 1024)
	b.Li(2, 8192)
	b.Li(3, 0)
	b.Li(4, n)
	b.Li(5, 0)
	loop := b.NewBlock()
	b.Muli(6, 3, 8)
	b.Add(7, 1, 6)
	b.Ld8(8, 7, 0)
	b.Add(5, 5, 8)
	b.Add(9, 2, 6)
	b.St8(9, 0, 5)
	b.Addi(3, 3, 1)
	b.Blt(3, 4, loop)
	b.NewBlock()
	b.Halt()
	return b.MustProgram()
}

// warmCommitSystem builds a system over commitLoopProgram, runs it far
// enough to compile and warm the loop region, and returns the system with
// its single cached region — parked at the loop entry, with enough
// iterations left that every subsequent dispatch commits.
func warmCommitSystem(t *testing.T, tel *telemetry.Telemetry) (*System, int, *compiled) {
	t.Helper()
	cfg := ConfigSMARQ(64)
	cfg.Telemetry = tel
	sys := New(commitLoopProgram(1_000_000), &guest.State{}, guest.NewMemory(1<<16), cfg)
	if halted, err := sys.Run(10_000); err != nil || halted {
		t.Fatalf("warm-up: halted=%v err=%v", halted, err)
	}
	if sys.installed != 1 {
		t.Fatalf("cache holds %d regions, want 1", sys.installed)
	}
	for entry := range sys.disp {
		c := sys.disp[entry].code
		if c == nil {
			continue
		}
		if next := sys.runRegion(entry, c); next != entry {
			t.Fatalf("warm dispatch left the loop: next=%d, want %d", next, entry)
		}
		return sys, entry, c
	}
	panic("unreachable")
}

// TestRunRegionZeroAllocs pins the full runtime dispatch path — recovery
// bookkeeping, execution, commit, stats — at zero heap allocations per
// region entry, both with telemetry disabled (the nil-check path) and
// with a flight-recorder tracer plus metrics registry enabled (ring copy
// plus atomic adds, no encoding).
func TestRunRegionZeroAllocs(t *testing.T) {
	cases := map[string]*telemetry.Telemetry{
		"telemetry-off": nil,
		"telemetry-on": {
			Events:  telemetry.NewTracer(0, nil), // flight recorder: no sink, no drain
			Metrics: telemetry.NewRegistry(),
		},
	}
	for name, tel := range cases {
		t.Run(name, func(t *testing.T) {
			sys, entry, c := warmCommitSystem(t, tel)
			before := sys.Stats.Commits
			allocs := testing.AllocsPerRun(200, func() {
				if next := sys.runRegion(entry, c); next != entry {
					t.Fatalf("dispatch left the loop: next=%d", next)
				}
			})
			if allocs != 0 {
				t.Errorf("runRegion allocates %v times per entry, want 0", allocs)
			}
			if sys.Stats.Commits <= before {
				t.Fatal("pinned loop did not commit")
			}
		})

		// Same pin with the fresh flag re-armed every entry, so the
		// install-to-dispatch lag observation runs on each iteration —
		// the histogram path must stay allocation-free too.
		t.Run(name+"/fresh", func(t *testing.T) {
			sys, entry, c := warmCommitSystem(t, tel)
			allocs := testing.AllocsPerRun(200, func() {
				c.fresh = true
				if next := sys.runRegion(entry, c); next != entry {
					t.Fatalf("dispatch left the loop: next=%d", next)
				}
			})
			if allocs != 0 {
				t.Errorf("runRegion (fresh install) allocates %v times per entry, want 0", allocs)
			}
			if tel != nil {
				if n := tel.Metrics.Histogram(hInstallLag, nil).Count(); n == 0 {
					t.Error("install-lag histogram never observed")
				}
			}
		})
	}
}
