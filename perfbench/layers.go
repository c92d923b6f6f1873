package main

import (
	"time"

	"smarq/internal/dynopt"
)

// passCounts sums the public Stats of every job of the first pass.
type passCounts struct {
	jobs, distinctRegions                int
	guestInsts, interpInsts              int64
	totalCycles, rollbackCycles          int64
	commits, rollbacks, dispatches       int64
	regions, recompiles, overflowRetries int64
	memoHits, memoMisses, dedupeWaits    int64
	ladderMoves, healthMoves             int64
	hwChecks                             uint64
	regionInstsSum                       int64
}

func sumPass(stats []dynopt.Stats) passCounts {
	var c passCounts
	for i := range stats {
		s := &stats[i]
		c.jobs++
		c.guestInsts += s.GuestInsts
		c.interpInsts += s.InterpretedInsts
		c.totalCycles += s.TotalCycles
		c.rollbackCycles += s.RollbackCycles
		c.commits += s.Commits
		c.rollbacks += s.AliasExceptions + s.GuardFails + s.Faults
		for _, n := range s.Recovery.TierDispatches {
			c.dispatches += n
		}
		c.regions += int64(s.RegionsCompiled)
		c.recompiles += int64(s.Recompiles)
		c.overflowRetries += int64(s.OverflowRetries)
		c.memoHits += s.Compile.MemoHits
		c.memoMisses += s.Compile.MemoMisses
		c.dedupeWaits += s.Compile.DedupeWaits
		c.ladderMoves += s.Recovery.Demotions + s.Recovery.Promotions
		c.healthMoves += s.Health.Demotions + s.Health.Promotions
		c.hwChecks += s.HWChecks
		c.distinctRegions += len(s.Regions)
		for _, r := range s.Regions {
			c.regionInstsSum += int64(r.GuestInsts)
		}
	}
	return c
}

// pipelineRuns is how many times the compile pipeline actually ran: with
// a compile cache, only the misses that led a compile; without one, every
// compile and recompile.
func (c *passCounts) pipelineRuns() float64 {
	if c.memoHits+c.memoMisses > 0 {
		return float64(c.memoMisses - c.dedupeWaits)
	}
	return float64(c.regions + c.recompiles)
}

// layerMetrics combines the replay's unit costs with the first pass's
// counts. Each layer's share of job time is its unit cost times its count
// over the summed wall time of the first pass's jobs.
func layerMetrics(m *measurement, lt *layerTimes, untracedReplay time.Duration) map[string]float64 {
	c := sumPass(m.firstPass)
	us := func(a *acc) float64 { return a.per() / 1e3 }
	out := map[string]float64{
		"interp.ns_per_inst":            lt.interp.per(),
		"interp.decode_us":              us(&lt.decode),
		"interp.insts_share":            ratio(float64(c.interpInsts), float64(c.guestInsts)),
		"region.form_us":                us(&lt.form),
		"compile.regions":               float64(c.regions + c.recompiles),
		"compile.overflow_retries":      float64(c.overflowRetries),
		"compilequeue.key_ns_per_inst":  lt.key.per(),
		"compilequeue.memo_hit_ratio":   ratio(float64(c.memoHits), float64(c.memoHits+c.memoMisses)),
		"compilequeue.pool_wait_us":     us(&lt.poolWait),
		"vliw.exec_ns_per_entry":        lt.execDet.per(),
		"vliw.exec_ns_per_inst":         lt.commitDet.per(),
		"vliw.dispatches":               float64(c.dispatches),
		"vliw.commit_ratio":             ratio(float64(c.commits), float64(c.dispatches)),
		"aliashw.detector_ns_per_entry": ratio(lt.execDet.ns-lt.execNone.ns, lt.execDet.n),
		"aliashw.checks_per_kinst":      ratio(float64(c.hwChecks), float64(c.guestInsts)/1000),
		"atomic.store_ns":               lt.store.per(),
		"atomic.rollback_ns_per_store":  lt.rollback.per(),
		"dynopt.rollbacks":              float64(c.rollbacks),
		"dynopt.rollback_cycle_share":   ratio(float64(c.rollbackCycles), float64(c.totalCycles)),
		"dynopt.ladder_moves":           float64(c.ladderMoves),
		"health.moves":                  float64(c.healthMoves),
		"codecache.lookup_ns":           lt.lookup.per(),
		"codecache.lookup_ns_2g":        lt.lookup2.per(),
		"harness.cpu_per_wall":          ratio(m.cpu.Seconds(), m.wall.Seconds()),
		"harness.tenant_wall_spread":    1,
		"trace.overhead_pct":            100 * ratio(float64(lt.wall-untracedReplay), float64(untracedReplay)),
	}
	for _, s := range compileStagesList {
		out[s+"_us"] = us(lt.stages[s])
	}
	if m.spec.fleet {
		var spreads []float64
		var cpu, wall time.Duration
		for _, r := range m.rounds {
			spreads = append(spreads, r.spread)
			cpu += r.cpu
			wall += r.wall
			if r.pass == 0 {
				out["codecache.dedupe_pct"] += r.dedupe
				out["codecache.compiles"] += float64(r.compiles)
			}
		}
		out["codecache.dedupe_pct"] = ratio(out["codecache.dedupe_pct"], float64(len(m.firstPass))/fleetTenants)
		out["harness.tenant_wall_spread"] = median(spreads)
		out["harness.cpu_per_wall"] = ratio(cpu.Seconds(), wall.Seconds())
	}

	// Host nanoseconds each layer explains in the first pass.
	regionInsts := float64(c.guestInsts - c.interpInsts)
	var compilePerRegion float64
	for _, s := range compileStagesList {
		compilePerRegion += lt.stages[s].per()
	}
	avgRegionInsts := ratio(float64(c.regionInstsSum), float64(c.distinctRegions))
	avgStores := ratio(lt.storesBuffered, lt.commits)
	shares := map[string]float64{
		"interp":       lt.interp.per()*float64(c.interpInsts) + lt.decode.per()*float64(c.jobs),
		"vliw":         lt.commitNone.per() * regionInsts,
		"aliashw":      (lt.commitDet.per() - lt.commitNone.per()) * regionInsts,
		"compile":      compilePerRegion*c.pipelineRuns() + lt.form.per()*float64(c.distinctRegions),
		"compilequeue": lt.key.per() * avgRegionInsts * float64(c.memoHits+c.memoMisses),
		"atomic":       lt.rollback.per() * avgStores * float64(c.rollbacks),
	}
	// Every pass runs the same jobs, so the mean pass is the denominator.
	jobNS := ratio(float64(m.jobWall.Nanoseconds()), float64(m.passes))
	var accounted float64
	for layer, ns := range shares {
		out["trace."+layer+"_pct"] = 100 * ratio(ns, jobNS)
		accounted += ns
	}
	out["trace.accounted_pct"] = 100 * ratio(accounted, jobNS)
	out["dynopt.glue_share"] = 1 - ratio(accounted, jobNS)
	return out
}
