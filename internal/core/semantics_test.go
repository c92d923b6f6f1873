package core

import (
	"math/rand"
	"testing"

	"smarq/internal/aliashw"
	"smarq/internal/ir"
)

// TestAllocationDetectionSemantics is the whole point of SMARQ, verified
// end to end at the allocator level: run the annotated sequence (P/C bits,
// offsets, rotations, AMOVs) against the ordered-queue hardware with
// random runtime addresses and confirm
//
//   - every *violated* dependence is detected: a dependence s →dep d whose
//     check fired (d precedes s in the final sequence) and whose runtime
//     ranges truly overlap raises an alias exception;
//   - there are NO false positives: when no such pair overlaps, execution
//     is silent — the anti-constraints and AMOVs did their job;
//   - a raised exception names one of the genuinely conflicting pairs.
func TestAllocationDetectionSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	trials, silent, detected := 0, 0, 0
	for iter := 0; iter < 800; iter++ {
		res, ops, _, ds := randomAllocationDeps(rng, 64)
		if res == nil {
			continue
		}
		// Runtime addresses must be CONSISTENT with the declared
		// relations: a pair with no dependence (and at least one store)
		// was proven disjoint by the compiler, so colliding them would
		// test an impossible execution. Start every op in its own slot,
		// then collide random dependence pairs when doing so violates no
		// disjointness proof.
		addr := make(map[int]uint64)
		for _, op := range ops {
			if op.IsMem() {
				addr[op.ID] = uint64(op.ID * 16)
			}
		}
		hasDep := map[[2]int]bool{}
		for _, d := range ds.All {
			hasDep[[2]int{d.Src, d.Dst}] = true
			hasDep[[2]int{d.Dst, d.Src}] = true
		}
		consistent := func(a, b int) bool {
			// a and b may share an address if they have a dependence or
			// neither is a store (load-load pairs carry no proof).
			if hasDep[[2]int{a, b}] {
				return true
			}
			return ops[a].Kind != ir.Store && ops[b].Kind != ir.Store
		}
		for _, d := range ds.All {
			if rng.Intn(2) != 0 {
				continue
			}
			// Tentatively collide the pair; every op already sharing the
			// source's slot must also be compatible with the dst.
			ok := true
			for _, op := range ops {
				if op.IsMem() && op.ID != d.Dst && addr[op.ID] == addr[d.Src] {
					if !consistent(op.ID, d.Dst) {
						ok = false
						break
					}
				}
			}
			if ok {
				addr[d.Dst] = addr[d.Src]
			}
		}
		// Expected conflicts: dependences whose check fired at runtime.
		pos := map[int]int{}
		for i, op := range res.Seq {
			pos[op.ID] = i
		}
		expected := map[[2]int]bool{}
		for _, d := range ds.All {
			ps, okS := pos[d.Src]
			pd, okD := pos[d.Dst]
			if !okS || !okD || pd >= ps {
				continue // check did not fire for this pair
			}
			if addr[d.Src] == addr[d.Dst] {
				expected[[2]int{d.Src, d.Dst}] = true
			}
		}

		// Execute the sequence against the hardware.
		q := aliashw.NewOrderedQueue(64)
		var conflict *aliashw.Conflict
		for _, op := range res.Seq {
			switch op.Kind {
			case ir.Rotate:
				q.Rotate(op.Amount)
			case ir.AMov:
				q.AMov(op.SrcOff, op.DstOff)
			case ir.Load, ir.Store:
				lo := addr[op.ID]
				if c, hit := q.OnMem(op.ID, op.Kind == ir.Store, op.P, op.C, op.AROffset, 0, lo, lo+8); hit {
					conflict = &c
				}
			}
			if conflict != nil {
				break
			}
		}
		q.Reset()

		trials++
		if len(expected) == 0 {
			if conflict != nil {
				t.Fatalf("iter %d: FALSE POSITIVE: op %d checked op %d with no violated dependence",
					iter, conflict.Checker, conflict.Origin)
			}
			silent++
			continue
		}
		if conflict == nil {
			t.Fatalf("iter %d: MISSED DETECTION: %v violated but no exception", iter, expected)
		}
		if !expected[[2]int{conflict.Checker, conflict.Origin}] {
			t.Fatalf("iter %d: exception names (%d,%d), not a violated dependence %v",
				iter, conflict.Checker, conflict.Origin, expected)
		}
		detected++
	}
	if trials < 500 || silent < 50 || detected < 50 {
		t.Errorf("weak coverage: %d trials, %d silent, %d detected", trials, silent, detected)
	}
	t.Logf("%d trials: %d silent, %d detected, 0 false positives, 0 misses", trials, silent, detected)
}
