package health

import "testing"

func testLadderConfig() LadderConfig {
	return LadderConfig{
		Top:             3,
		Window:          8,
		DemoteThreshold: 10,
		PromoteAfter:    4,
		BackoffFactor:   2,
		MaxBackoff:      4,
	}
}

// TestLadderWeightedWindow: the demotion score is the weighted sum of the
// faults inside the window, and faults that slid out no longer count.
func TestLadderWeightedWindow(t *testing.T) {
	l := NewLadder(testLadderConfig())
	if l.Fault(4) || l.Fault(4) {
		t.Fatal("demoted at score 8, threshold 10")
	}
	// Slide both faults out of the 8-slot window.
	for i := 0; i < 8; i++ {
		if l.Clean() {
			t.Fatal("promoted at rung 0")
		}
	}
	if l.Fault(4) || l.Fault(4) {
		t.Fatal("faults outside the window still counted")
	}
	if !l.Fault(4) {
		t.Fatal("score 12 inside the window did not demote")
	}
	if l.Rung() != 1 || l.Demotions() != 1 {
		t.Errorf("rung %d demotions %d, want 1/1", l.Rung(), l.Demotions())
	}
}

// TestLadderStorm: with the storm detector on, consecutive faults demote
// below the window threshold; a clean observation breaks the run. With it
// off (StormThreshold 0), only the window score demotes.
func TestLadderStorm(t *testing.T) {
	cfg := testLadderConfig()
	cfg.StormThreshold = 3
	l := NewLadder(cfg)
	l.Fault(1)
	l.Fault(1)
	l.Clean()
	if l.Fault(1) || l.Fault(1) {
		t.Fatal("storm detector counted across a clean observation")
	}
	if !l.Fault(1) {
		t.Fatal("three consecutive faults did not demote")
	}

	off := NewLadder(testLadderConfig())
	for i := 0; i < 9; i++ {
		if off.Fault(1) {
			t.Fatalf("demoted after %d consecutive weight-1 faults with the storm detector off", i+1)
		}
	}
}

// TestLadderBackoffStickyAndTop: promotion needs PromoteAfter × backoff
// cleans, Interrupt restarts the run, the ladder goes sticky past
// MaxBackoff, and faults at Top never demote further.
func TestLadderBackoffStickyAndTop(t *testing.T) {
	cfg := testLadderConfig()
	l := NewLadder(cfg)
	l.Demote() // backoff 2
	need := cfg.PromoteAfter * 2
	for i := 0; i < need-1; i++ {
		l.Clean()
	}
	l.Interrupt()
	for i := 0; i < need-1; i++ {
		if l.Clean() {
			t.Fatal("promotion run survived an interrupt")
		}
	}
	if !l.Clean() || l.Rung() != 0 || l.Promotions() != 1 {
		t.Fatalf("no promotion after a full clean run: rung %d", l.Rung())
	}
	for l.Rung() < cfg.Top {
		l.Demote()
	}
	if !l.Sticky() {
		t.Fatal("backoff past MaxBackoff did not go sticky")
	}
	for i := 0; i < 100; i++ {
		if l.Fault(cfg.DemoteThreshold) || l.Clean() {
			t.Fatal("a sticky ladder at Top moved")
		}
	}
}

// TestLadderOneAllocation: the window is a ladder's only heap storage.
func TestLadderOneAllocation(t *testing.T) {
	cfg := testLadderConfig()
	var l Ladder
	if n := testing.AllocsPerRun(100, func() { l = NewLadder(cfg) }); n > 1 {
		t.Errorf("NewLadder allocates %.0f times, want at most 1", n)
	}
	_ = l
}
