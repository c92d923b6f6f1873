package health

// LadderConfig tunes a Ladder. Rung 0 is full service and Top the most
// degraded rung; the other fields mean what they mean in Config, plus a
// StormThreshold that demotes after that many consecutive faults
// whatever the window score (0 turns the storm detector off).
type LadderConfig struct {
	Top             int
	Window          int
	DemoteThreshold int
	StormThreshold  int
	PromoteAfter    int
	BackoffFactor   int
	MaxBackoff      int
}

// Ladder is the hysteresis state machine shared by the per-region
// speculation ladder (dynopt's regionRecovery) and the system health
// Controller: a weighted sliding window of fault observations, threshold
// and storm demotion, and promotion after a clean run scaled by an
// exponential backoff that goes sticky past MaxBackoff.
//
// A Ladder is a plain value whose only heap storage is its window. Not
// safe for concurrent use.
type Ladder struct {
	cfg  LadderConfig
	rung int
	// window is a ring of observation weights (0 for a clean one); score
	// is their sum.
	window     []int
	wpos, wlen int
	score      int
	consec     int // consecutive faults (storm detector)
	clean      int // consecutive clean observations
	backoff    int
	sticky     bool
	demotions  int
	promotions int
}

// NewLadder returns a ladder at rung 0.
func NewLadder(cfg LadderConfig) Ladder {
	return Ladder{cfg: cfg, window: make([]int, cfg.Window), backoff: 1}
}

// Rung returns the current rung.
func (l *Ladder) Rung() int { return l.rung }

// Sticky reports whether the promotion backoff is exhausted.
func (l *Ladder) Sticky() bool { return l.sticky }

// SetSticky stops all future promotions.
func (l *Ladder) SetSticky() { l.sticky = true }

// Demotions counts the ladder's lifetime demotions.
func (l *Ladder) Demotions() int { return l.demotions }

// Promotions counts the ladder's lifetime promotions.
func (l *Ladder) Promotions() int { return l.promotions }

// push slides one observation weight into the window.
func (l *Ladder) push(weight int) {
	if l.wlen == len(l.window) {
		l.score -= l.window[l.wpos]
	} else {
		l.wlen++
	}
	l.window[l.wpos] = weight
	l.score += weight
	l.wpos = (l.wpos + 1) % len(l.window)
}

func (l *Ladder) resetWindow() {
	clear(l.window)
	l.wpos, l.wlen, l.score, l.consec, l.clean = 0, 0, 0, 0, 0
}

// Clean feeds one clean observation and reports whether it earned a
// one-rung promotion: PromoteAfter × backoff consecutive cleans, unless
// the ladder is sticky or already at rung 0.
func (l *Ladder) Clean() bool {
	l.push(0)
	l.consec = 0
	l.clean++
	if l.sticky || l.rung == 0 || l.clean < l.cfg.PromoteAfter*l.backoff {
		return false
	}
	l.rung--
	l.promotions++
	l.resetWindow()
	return true
}

// Fault feeds one fault observation of the given weight and reports
// whether it demoted the ladder one rung: the window score reached
// DemoteThreshold, or the consecutive-fault run reached StormThreshold.
func (l *Ladder) Fault(weight int) bool {
	l.push(weight)
	l.consec++
	l.clean = 0
	if l.rung == l.cfg.Top {
		return false
	}
	storm := l.cfg.StormThreshold > 0 && l.consec >= l.cfg.StormThreshold
	if !storm && l.score < l.cfg.DemoteThreshold {
		return false
	}
	l.Demote()
	return true
}

// Interrupt breaks the clean run without recording a fault: the event
// delays promotion but counts toward neither the window nor the storm.
func (l *Ladder) Interrupt() { l.clean = 0 }

// Demote moves one rung down unconditionally and multiplies the
// promotion backoff; past MaxBackoff the ladder becomes sticky.
func (l *Ladder) Demote() {
	l.rung++
	l.demotions++
	l.resetWindow()
	l.backoff *= l.cfg.BackoffFactor
	if l.backoff > l.cfg.MaxBackoff {
		l.sticky = true
	}
}
