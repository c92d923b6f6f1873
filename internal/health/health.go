// Package health holds the system's one hysteresis ladder (Ladder,
// ladder.go) and its system-scope user, the graceful-degradation
// Controller. dynopt's per-region speculation ladder is the other user.
//
// The controller watches a sliding window of system events — host faults
// (compile-worker panics, watchdog kills, rejected poisoned results) and
// misspeculation rollbacks — and walks a global degradation ladder:
//
//	normal → no-speculation → compile-off → quarantine
//
// Each demotion sheds one capability: first speculation (new compiles are
// clamped to the conservative tier), then compilation entirely
// (interpreter-only execution), then admission (regions that become hot
// while quarantined are permanently barred from compiling). Re-promotion
// needs a sustained run of clean observations, scaled by an exponential
// backoff that grows on every demotion — the hysteresis that keeps a
// flapping host from oscillating — and past MaxBackoff the controller
// goes sticky and never promotes again.
//
// Determinism: the controller is plain single-threaded state fed only
// from the simulation thread (dispatch outcomes and install points, both
// fixed by the simulated clock), so its walk is byte-identical for a
// fixed seed at any background worker count.
package health

import "fmt"

// Level is one rung of the global degradation ladder. Higher values
// degrade further.
type Level int

const (
	// Normal: full service, per-region ladders govern speculation.
	Normal Level = iota
	// NoSpeculation clamps every new compile to the conservative tier
	// (no reordering past may-alias memory ops, no speculative
	// eliminations); installed code keeps running.
	NoSpeculation
	// CompileOff stops compiling and dispatching entirely: the system
	// runs interpreter-only until health recovers.
	CompileOff
	// Quarantine additionally bars regions that become hot while here
	// from ever compiling (quarantine-new-regions).
	Quarantine
)

// NumLevels is the ladder length.
const NumLevels = int(Quarantine) + 1

var levelNames = [NumLevels]string{
	"normal", "no-speculation", "compile-off", "quarantine",
}

// String returns the level name.
func (l Level) String() string {
	if l < 0 || int(l) >= NumLevels {
		return fmt.Sprintf("level(%d)", int(l))
	}
	return levelNames[l]
}

// Config tunes the health controller. The zero value disables it
// entirely (Enabled() == false), so existing runs and goldens are
// untouched unless a caller opts in.
type Config struct {
	// Window is the sliding window of observations over which the fault
	// score is measured.
	Window int
	// DemoteThreshold demotes one level when the weighted fault score
	// inside the window reaches it.
	DemoteThreshold int
	// HostFaultWeight is how many window points one host fault scores
	// (rollbacks score 1): host faults are rarer and individually more
	// alarming than rollbacks.
	HostFaultWeight int
	// PromoteAfter re-promotes one level after this many consecutive
	// clean observations, scaled by the current backoff multiplier.
	PromoteAfter int
	// BackoffFactor multiplies the promotion backoff on every demotion;
	// must be >= 2 so oscillation damps.
	BackoffFactor int
	// MaxBackoff caps the multiplier: past it the controller is sticky
	// and never promotes again.
	MaxBackoff int
}

// Enabled reports whether the controller is configured on.
func (c Config) Enabled() bool { return c != Config{} }

// DefaultConfig returns the standard tuning: tolerant enough that the
// background noise of a chaos soak doesn't demote, tight enough that a
// host-fault burst degrades within one window.
func DefaultConfig() Config {
	return Config{
		Window:          128,
		DemoteThreshold: 16,
		HostFaultWeight: 4,
		PromoteAfter:    192,
		BackoffFactor:   2,
		MaxBackoff:      8,
	}
}

// Validate rejects nonsensical tunings (a zero Config is valid: disabled).
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch {
	case c.Window <= 0:
		return fmt.Errorf("health: Window %d, want > 0", c.Window)
	case c.DemoteThreshold <= 0:
		return fmt.Errorf("health: DemoteThreshold %d, want > 0", c.DemoteThreshold)
	case c.HostFaultWeight <= 0:
		return fmt.Errorf("health: HostFaultWeight %d, want > 0", c.HostFaultWeight)
	case c.PromoteAfter <= 0:
		return fmt.Errorf("health: PromoteAfter %d, want > 0", c.PromoteAfter)
	case c.BackoffFactor < 2:
		return fmt.Errorf("health: BackoffFactor %d, want >= 2", c.BackoffFactor)
	case c.MaxBackoff < 1:
		return fmt.Errorf("health: MaxBackoff %d, want >= 1", c.MaxBackoff)
	}
	return nil
}

// Stats is the controller's run-wide accounting (dynopt.Stats.Health).
type Stats struct {
	// Demotions and Promotions count ladder moves.
	Demotions  int64
	Promotions int64
	// HostFaults, Rollbacks and Cleans count the observations fed in.
	HostFaults int64
	Rollbacks  int64
	Cleans     int64
	// QuarantinedRegions counts regions permanently barred from
	// compiling (filled by dynopt, not the controller).
	QuarantinedRegions int64
	// FinalLevel and Sticky are the end-of-run controller state.
	FinalLevel Level
	Sticky     bool
	// LevelEntries counts how many times each level was entered by a
	// demotion or promotion (Normal's count excludes the initial state).
	LevelEntries [NumLevels]int64
}

// Move describes one ladder transition.
type Move struct {
	From, To Level
}

// Controller is the system health ladder: a Ladder over the Levels, fed
// host faults (weight HostFaultWeight), rollbacks (weight 1) and clean
// observations, with no storm detector. Not safe for concurrent use; the
// simulation thread owns it.
type Controller struct {
	ladder          Ladder
	hostFaultWeight int
	stats           Stats
}

// New returns a controller at Normal. cfg must be Enabled and Valid.
func New(cfg Config) *Controller {
	return &Controller{
		ladder: NewLadder(LadderConfig{
			Top:             int(Quarantine),
			Window:          cfg.Window,
			DemoteThreshold: cfg.DemoteThreshold,
			PromoteAfter:    cfg.PromoteAfter,
			BackoffFactor:   cfg.BackoffFactor,
			MaxBackoff:      cfg.MaxBackoff,
		}),
		hostFaultWeight: cfg.HostFaultWeight,
	}
}

// Level returns the current degradation level.
func (c *Controller) Level() Level { return Level(c.ladder.Rung()) }

// Sticky reports whether the promotion backoff is exhausted.
func (c *Controller) Sticky() bool { return c.ladder.Sticky() }

// Stats returns the accounting with the end-of-run fields filled.
func (c *Controller) Stats() Stats {
	st := c.stats
	st.Demotions = int64(c.ladder.Demotions())
	st.Promotions = int64(c.ladder.Promotions())
	st.FinalLevel = c.Level()
	st.Sticky = c.Sticky()
	return st
}

// moved reports the ladder step just taken from level from, if any.
func (c *Controller) moved(from Level, ok bool) (Move, bool) {
	if !ok {
		return Move{}, false
	}
	to := c.Level()
	c.stats.LevelEntries[to]++
	return Move{From: from, To: to}, true
}

// RecordClean feeds one clean observation (a committed dispatch, or — at
// CompileOff and above, where nothing dispatches — quiet interpreted
// progress) and reports a promotion if one was earned: PromoteAfter ×
// backoff consecutive cleans, unless sticky.
func (c *Controller) RecordClean() (Move, bool) {
	c.stats.Cleans++
	from := c.Level()
	return c.moved(from, c.ladder.Clean())
}

// RecordRollback feeds one misspeculation rollback (weight 1) and reports
// a demotion if the window score crossed the threshold.
func (c *Controller) RecordRollback() (Move, bool) {
	c.stats.Rollbacks++
	from := c.Level()
	return c.moved(from, c.ladder.Fault(1))
}

// RecordHostFault feeds one host fault — a worker panic, watchdog kill or
// rejected poisoned result (weight HostFaultWeight) — and reports a
// demotion if due.
func (c *Controller) RecordHostFault() (Move, bool) {
	c.stats.HostFaults++
	from := c.Level()
	return c.moved(from, c.ladder.Fault(c.hostFaultWeight))
}
