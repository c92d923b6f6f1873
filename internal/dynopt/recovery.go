package dynopt

import (
	"fmt"

	"smarq/internal/health"
)

// Tier is one rung of the per-region speculation ladder. Regions start at
// TierFull and the recovery controller demotes them one rung at a time
// when misspeculation rollbacks (alias exceptions and speculation-induced
// faults) cluster, instead of the one-shot speculate/conservative switch
// the paper's runtime sketches. Higher values speculate less.
type Tier int

const (
	// TierFull is full speculation: reordering, store reordering, and
	// speculative load/store elimination, as the hardware mode allows.
	TierFull Tier = iota
	// TierNoStoreReorder disables speculative store-store reordering.
	TierNoStoreReorder
	// TierNoElim additionally disables speculative load/store
	// elimination; loads may still be hoisted across may-alias stores.
	TierNoElim
	// TierConservative disables speculation entirely: memory operations
	// keep program order, no alias registers are allocated, so the
	// region can no longer raise genuine alias exceptions.
	TierConservative
	// TierPinned drops the region from the code cache: the region is
	// interpreter-pinned and executes no compiled code at all.
	TierPinned
)

// NumTiers is the ladder length.
const NumTiers = int(TierPinned) + 1

var tierNames = [NumTiers]string{
	"full", "no-store-reorder", "no-elim", "conservative", "pinned",
}

// String returns the tier name.
func (t Tier) String() string {
	if t < 0 || int(t) >= NumTiers {
		return fmt.Sprintf("tier(%d)", int(t))
	}
	return tierNames[t]
}

// RecoveryConfig tunes the tiered deoptimization controller and the code
// cache bound. The zero value is replaced by DefaultRecoveryConfig.
type RecoveryConfig struct {
	// MaxExceptionsPerRegion is the chronic-offender cap: a region whose
	// lifetime alias-exception count passes it jumps straight to
	// TierConservative and stops re-promoting. (Formerly the hidden
	// maxExceptionsPerRegion constant.)
	MaxExceptionsPerRegion int
	// Window is the sliding window of region entries over which the
	// controller measures the rollback rate.
	Window int
	// DemoteThreshold demotes one rung when at least this many
	// misspeculation rollbacks land inside the window.
	DemoteThreshold int
	// StormThreshold demotes immediately after this many consecutive
	// misspeculation rollbacks (a rollback storm), regardless of the
	// window rate.
	StormThreshold int
	// PromoteAfter re-promotes a region one rung after this many
	// consecutive clean commits, scaled by the region's current backoff
	// multiplier.
	PromoteAfter int
	// BackoffFactor multiplies the region's promotion backoff on every
	// demotion (exponential backoff); must be >= 2 so oscillation damps.
	BackoffFactor int
	// MaxBackoff caps the backoff multiplier: once a region's backoff
	// exceeds it the region becomes sticky — it stays at its tier and
	// never re-promotes, which bounds the total number of
	// re-optimizations any region can undergo (no livelock).
	MaxBackoff int
	// CodeCacheCapacity bounds how many compiled regions stay installed;
	// inserting past it evicts the least recently dispatched region, so
	// chronic recompilation cannot grow memory without bound.
	CodeCacheCapacity int
}

// DefaultRecoveryConfig returns the standard ladder tuning: tolerant
// enough that a handful of converging alias exceptions (the paper's
// blacklist path) never demotes, aggressive enough that storms reach the
// interpreter within a few windows.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		MaxExceptionsPerRegion: 24,
		Window:                 32,
		DemoteThreshold:        8,
		StormThreshold:         5,
		PromoteAfter:           64,
		BackoffFactor:          2,
		MaxBackoff:             16,
		CodeCacheCapacity:      256,
	}
}

// Validate rejects nonsensical ladder tunings.
func (r RecoveryConfig) Validate() error {
	switch {
	case r.MaxExceptionsPerRegion <= 0:
		return fmt.Errorf("dynopt: MaxExceptionsPerRegion %d, want > 0", r.MaxExceptionsPerRegion)
	case r.Window <= 0:
		return fmt.Errorf("dynopt: recovery Window %d, want > 0", r.Window)
	case r.DemoteThreshold <= 0 || r.DemoteThreshold > r.Window:
		return fmt.Errorf("dynopt: DemoteThreshold %d, want in [1, Window=%d]", r.DemoteThreshold, r.Window)
	case r.StormThreshold <= 0:
		return fmt.Errorf("dynopt: StormThreshold %d, want > 0", r.StormThreshold)
	case r.PromoteAfter <= 0:
		return fmt.Errorf("dynopt: PromoteAfter %d, want > 0", r.PromoteAfter)
	case r.BackoffFactor < 2:
		return fmt.Errorf("dynopt: BackoffFactor %d, want >= 2", r.BackoffFactor)
	case r.MaxBackoff < 1:
		return fmt.Errorf("dynopt: MaxBackoff %d, want >= 1", r.MaxBackoff)
	case r.CodeCacheCapacity <= 0:
		return fmt.Errorf("dynopt: CodeCacheCapacity %d, want > 0", r.CodeCacheCapacity)
	}
	return nil
}

// RecoveryStats aggregates the controller's run-wide activity.
type RecoveryStats struct {
	// Demotions and Promotions count ladder transitions across all
	// regions.
	Demotions  int64
	Promotions int64
	// Evictions counts compiled regions evicted by the code cache bound.
	Evictions int64
	// PinnedRegions and StickyRegions are the end-of-run counts of
	// regions at TierPinned and of regions that exhausted their backoff
	// (stable forever).
	PinnedRegions int
	StickyRegions int
	// TierDispatches counts region entries executed per tier;
	// TierPinned counts interpreted entries of pinned regions.
	TierDispatches [NumTiers]int64
	// TierRegions is the end-of-run residency: how many regions sit at
	// each tier.
	TierRegions [NumTiers]int
	// InvariantViolations counts rollbacks that failed the checkpoint
	// check (always fatal; nonzero only under injected corruption or a
	// genuine recovery bug).
	InvariantViolations int64
}

// regionRecovery is one region's speculation ladder: the shared
// hysteresis machine (health.Ladder) with the tiers as rungs, fed one
// observation per region entry — Clean for a commit or for an interpreted
// entry of a pinned region (which is how a pinned region re-promotes to
// conservative code), Fault(1) for a misspeculation rollback that taught
// the optimizer nothing, Interrupt for one that hardened a fresh pair
// (learning, not storming: blacklist convergence at region warmup must
// not demote). Only the multi-rung jump, demoteTo (failed pair hardening,
// the chronic-offender cap), is region-only.
type regionRecovery struct {
	health.Ladder
}

func newRegionRecovery(cfg RecoveryConfig) *regionRecovery {
	return &regionRecovery{health.NewLadder(health.LadderConfig{
		Top:             int(TierPinned),
		Window:          cfg.Window,
		DemoteThreshold: cfg.DemoteThreshold,
		StormThreshold:  cfg.StormThreshold,
		PromoteAfter:    cfg.PromoteAfter,
		BackoffFactor:   cfg.BackoffFactor,
		MaxBackoff:      cfg.MaxBackoff,
	})}
}

// tier is the region's current rung.
func (rr *regionRecovery) tier() Tier { return Tier(rr.Rung()) }

// demoteTo jumps down to at least t (pair hardening failed, or the
// chronic-offender cap) and reports whether the tier changed.
func (rr *regionRecovery) demoteTo(t Tier) bool {
	changed := false
	for rr.tier() < t {
		rr.Demote()
		changed = true
	}
	return changed
}
