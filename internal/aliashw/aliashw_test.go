package aliashw

import "testing"

// TestOrderedRule verifies [ORDERED-ALIAS-DETECTION-RULE] piece by piece.
func TestOrderedRule(t *testing.T) {
	q := NewOrderedQueue(8)

	// A P-only load records its range; a later C store at an earlier-or-
	// equal offset detects the overlap.
	if _, hit := q.OnMem(1, false, true, false, 0, 0, 100, 108); hit {
		t.Fatal("set raised a conflict")
	}
	if c, hit := q.OnMem(2, true, false, true, 0, 0, 104, 112); !hit {
		t.Fatal("overlapping store missed the load's register")
	} else if c.Checker != 2 || c.Origin != 1 {
		t.Errorf("conflict = %+v, want checker 2 origin 1", c)
	}
}

func TestOrderedNoFalseCheckOnEarlierRegisters(t *testing.T) {
	q := NewOrderedQueue(8)
	// Register at order 0 is set; a checker with offset 1 must NOT see it
	// ("the alias register allocated to X is not later than the alias
	// register allocated to Y").
	q.OnMem(1, false, true, false, 0, 0, 100, 108)
	if c, hit := q.OnMem(2, true, false, true, 1, 0, 100, 108); hit {
		t.Errorf("checker at offset 1 falsely checked register 0: %+v", c)
	}
	// At offset 0 it must see it.
	if _, hit := q.OnMem(3, true, false, true, 0, 0, 100, 108); !hit {
		t.Error("checker at offset 0 missed register 0")
	}
}

func TestOrderedLoadsDoNotCheckLoads(t *testing.T) {
	q := NewOrderedQueue(8)
	q.OnMem(1, false, true, false, 0, 0, 100, 108) // load sets reg 0
	if _, hit := q.OnMem(2, false, false, true, 0, 0, 100, 108); hit {
		t.Error("load checked a load-set register")
	}
	// But a store-set register is checked by loads.
	q.Reset()
	q.OnMem(1, true, true, false, 0, 0, 100, 108) // store sets reg 0
	if _, hit := q.OnMem(2, false, false, true, 0, 0, 100, 108); !hit {
		t.Error("load missed a store-set register")
	}
}

func TestOrderedCheckBeforeSet(t *testing.T) {
	q := NewOrderedQueue(8)
	// An op with both P and C must not detect itself, but must detect an
	// earlier conflicting entry.
	q.OnMem(1, true, true, false, 0, 0, 100, 108)
	if _, hit := q.OnMem(2, true, true, true, 0, 0, 100, 108); !hit {
		t.Fatal("P+C op missed the earlier store")
	}
	q.Reset()
	if _, hit := q.OnMem(3, true, true, true, 0, 0, 100, 108); hit {
		t.Error("P+C op detected itself")
	}
}

func TestOrderedNonOverlappingRangesSilent(t *testing.T) {
	q := NewOrderedQueue(8)
	q.OnMem(1, false, true, false, 0, 0, 100, 108)
	if _, hit := q.OnMem(2, true, false, true, 0, 0, 108, 116); hit {
		t.Error("adjacent non-overlapping ranges raised a conflict")
	}
}

func TestOrderedRotation(t *testing.T) {
	q := NewOrderedQueue(4)
	q.OnMem(1, false, true, false, 0, 0, 100, 108)
	q.Rotate(1)
	if q.Base() != 1 {
		t.Fatalf("base = %d, want 1", q.Base())
	}
	// The rotated-out register is cleared: a checker at offset 0 (order 1)
	// must not see the old entry, and the physical slot is reusable.
	if _, hit := q.OnMem(2, true, false, true, 0, 0, 100, 108); hit {
		t.Error("rotated-out register still visible")
	}
	// Reuse the freed physical register: set at offset 3 (order 4 = slot 0).
	q.OnMem(3, false, true, false, 3, 0, 200, 208)
	if _, hit := q.OnMem(4, true, false, true, 0, 0, 200, 208); !hit {
		t.Error("reused physical register not visible at its new order")
	}
}

func TestOrderedRotationWrapsManyTimes(t *testing.T) {
	q := NewOrderedQueue(2)
	for i := 0; i < 10; i++ {
		q.OnMem(i, false, true, false, 0, 0, uint64(i*16), uint64(i*16+8))
		if _, hit := q.OnMem(100+i, true, false, true, 0, 0, uint64(i*16), uint64(i*16+8)); !hit {
			t.Fatalf("iteration %d: conflict missed after rotations", i)
		}
		// The conflict origin must be the current setter, not a stale one.
		q.Rotate(1)
	}
}

func TestOrderedAMovMove(t *testing.T) {
	q := NewOrderedQueue(8)
	q.OnMem(1, true, true, false, 2, 0, 100, 108) // entry at order 2
	q.AMov(2, 0)                                  // move to order 0
	// Checker at offset 1 no longer sees it (order 0 < 1).
	if _, hit := q.OnMem(2, true, false, true, 1, 0, 100, 108); hit {
		t.Error("moved register still visible at old order")
	}
	// Checker at offset 0 sees it, with the ORIGINAL origin.
	if c, hit := q.OnMem(3, true, false, true, 0, 0, 100, 108); !hit {
		t.Error("moved register invisible at new order")
	} else if c.Origin != 1 {
		t.Errorf("moved entry origin = %d, want 1", c.Origin)
	}
}

func TestOrderedAMovCleanup(t *testing.T) {
	q := NewOrderedQueue(8)
	q.OnMem(1, true, true, false, 0, 0, 100, 108)
	q.AMov(0, 0)
	if _, hit := q.OnMem(2, true, false, true, 0, 0, 100, 108); hit {
		t.Error("cleaned register still visible")
	}
}

func TestOrderedAMovInvalidSource(t *testing.T) {
	q := NewOrderedQueue(8)
	q.AMov(3, 1) // nothing there: must be a harmless no-op
	if _, hit := q.OnMem(1, true, false, true, 0, 0, 0, 8); hit {
		t.Error("AMov of empty register materialized an entry")
	}
}

func TestOrderedOffsetOutOfRangePanics(t *testing.T) {
	q := NewOrderedQueue(4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range offset did not panic")
		}
	}()
	q.OnMem(1, false, true, false, 4, 0, 0, 8)
}

func TestOrderedReset(t *testing.T) {
	q := NewOrderedQueue(4)
	q.OnMem(1, true, true, false, 0, 0, 100, 108)
	q.Rotate(2)
	q.Reset()
	if q.Base() != 0 {
		t.Error("Reset did not clear base")
	}
	if _, hit := q.OnMem(2, true, false, true, 0, 0, 100, 108); hit {
		t.Error("Reset did not clear registers")
	}
}

func TestALATStoreChecksEverything(t *testing.T) {
	a := NewALAT()
	a.OnMem(1, false, true, false, 0, 0, 100, 108) // advanced load
	a.OnMem(2, false, true, false, 1, 0, 200, 208) // another
	// A store overlapping EITHER traps — even one the compiler never
	// reordered against (the false-positive source, §2.3).
	if c, hit := a.OnMem(3, true, false, false, -1, 0, 200, 208); !hit {
		t.Fatal("ALAT store missed an entry")
	} else if c.Origin != 2 {
		t.Errorf("origin = %d, want 2", c.Origin)
	}
}

func TestALATCannotDetectStoreStore(t *testing.T) {
	a := NewALAT()
	// Stores never record entries, so a second aliasing store is silent.
	a.OnMem(1, true, true, true, 0, 0, 100, 108)
	if _, hit := a.OnMem(2, true, true, true, 0, 0, 100, 108); hit {
		t.Error("ALAT detected a store-store alias (it must not be able to)")
	}
}

func TestALATLoadsNeverCheck(t *testing.T) {
	a := NewALAT()
	a.OnMem(1, false, true, false, 0, 0, 100, 108)
	if _, hit := a.OnMem(2, false, false, true, 0, 0, 100, 108); hit {
		t.Error("ALAT load performed a check")
	}
}

func TestALATReset(t *testing.T) {
	a := NewALAT()
	a.OnMem(1, false, true, false, 0, 0, 100, 108)
	a.Reset()
	if _, hit := a.OnMem(2, true, false, false, -1, 0, 100, 108); hit {
		t.Error("Reset did not clear ALAT entries")
	}
}

func TestNoneNeverConflicts(t *testing.T) {
	var n None
	if _, hit := n.OnMem(1, true, true, true, 0, 0, 0, 8); hit {
		t.Error("None detector raised a conflict")
	}
	n.Rotate(3)
	n.AMov(0, 1)
	n.Reset()
}

func TestBitmask(t *testing.T) {
	b := NewBitmask(20)
	if b.NumRegs() != MaxBitmaskRegs {
		t.Errorf("register count %d, want capped at %d", b.NumRegs(), MaxBitmaskRegs)
	}
	b.Set(1, false, 0, 100, 108)
	b.Set(2, true, 3, 200, 208)
	// Mask selecting only register 3: register 0's overlap is invisible —
	// the precision that prevents false positives.
	if _, hit := b.OnMem(5, false, false, true, 0, 1<<3, 100, 108); hit {
		t.Error("masked-out register was checked")
	}
	if _, hit := b.OnMem(5, false, false, true, 0, 1<<3, 200, 208); !hit {
		t.Error("selected register missed")
	}
	// Store-store detection works (Table 1: Efficeon detects aliases
	// between stores).
	if _, hit := b.OnMem(6, false, false, true, 0, 1<<3, 204, 212); !hit {
		t.Error("store-set register not detected")
	}
	b.Reset()
	if _, hit := b.OnMem(7, false, false, true, 0, 0xFFFF>>1, 0, 1<<30); hit {
		t.Error("Reset did not clear registers")
	}
}

func TestDetectorNames(t *testing.T) {
	if NewOrderedQueue(64).Name() != "ordered-64" {
		t.Error("ordered queue name wrong")
	}
	if NewALAT().Name() != "alat" {
		t.Error("alat name wrong")
	}
	if (None{}).Name() != "none" {
		t.Error("none name wrong")
	}
	if NewBitmask(8).Name() != "bitmask" {
		t.Error("bitmask name wrong")
	}
}

// TestCheckedCounters: exact comparison counts on small scenarios.
func TestCheckedCounters(t *testing.T) {
	q := NewOrderedQueue(8)
	q.OnMem(1, false, true, false, 0, 0, 100, 108) // set, no checks
	if q.Checked() != 0 {
		t.Errorf("set performed %d comparisons", q.Checked())
	}
	q.OnMem(2, false, true, false, 1, 0, 200, 208)
	q.OnMem(3, true, false, true, 0, 0, 300, 308) // checks both live entries
	if q.Checked() != 2 {
		t.Errorf("store checked %d entries, want 2", q.Checked())
	}
	// A load checker skips load-set entries without counting them.
	q.OnMem(4, false, false, true, 0, 0, 300, 308)
	if q.Checked() != 2 {
		t.Errorf("load checker counted load entries: %d", q.Checked())
	}
	q.Reset()
	if q.Checked() != 2 {
		t.Error("Reset cleared the cumulative counter")
	}

	a := NewALAT()
	a.OnMem(1, false, true, false, 0, 0, 100, 108)
	a.OnMem(2, false, true, false, 0, 0, 200, 208)
	a.OnMem(3, true, false, false, -1, 0, 900, 908)
	if a.Checked() != 2 {
		t.Errorf("ALAT store scanned %d entries, want 2", a.Checked())
	}

	b := NewBitmask(8)
	b.OnMem(1, false, true, false, 0, 0, 100, 108)
	b.OnMem(2, false, true, false, 3, 0, 200, 208)
	b.OnMem(3, true, false, true, 0, 1<<3, 900, 908) // mask selects reg 3 only
	if b.Checked() != 1 {
		t.Errorf("bitmask checked %d registers, want 1 (mask-selected)", b.Checked())
	}

	if (None{}).Checked() != 0 {
		t.Error("None detector counted checks")
	}
}

// TestOnMemNoConflictZeroAllocs: through the Detector interface, a check
// or set that finds no conflict allocates nothing on every model, and a
// conflict still comes back with its checker and origin. The executor's generic
// memory path relies on this.
func TestOnMemNoConflictZeroAllocs(t *testing.T) {
	for _, det := range []Detector{NewOrderedQueue(8), NewALAT(), NewBitmask(15), None{}} {
		det.OnMem(1, false, true, false, 0, 0, 100, 108) // a P load sets register 0
		allocs := testing.AllocsPerRun(100, func() {
			if c, hit := det.OnMem(2, true, false, true, 0, 1, 200, 208); hit {
				t.Fatalf("%s: unexpected conflict %+v", det.Name(), c)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: no-conflict OnMem allocates %v times, want 0", det.Name(), allocs)
		}
		if _, ok := det.(None); ok {
			continue
		}
		c, hit := det.OnMem(3, true, false, true, 0, 1, 104, 112)
		if !hit || c.Checker != 3 || c.Origin != 1 {
			t.Errorf("%s: conflict = %+v (hit %v), want checker 3 origin 1", det.Name(), c, hit)
		}
	}
}
