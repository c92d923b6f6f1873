package core

import (
	"fmt"

	"smarq/internal/deps"
	"smarq/internal/ir"
)

// AllocateSequence runs the allocator over a fixed schedule: ops is the
// region's op list indexed by ID, schedule the chosen execution order (op
// IDs). This is the paper's FAST ALGORITHM (§5.1) driver: allocation in
// constraint order, one topological pass, without a surrounding list
// scheduler. It returns the finished result.
func AllocateSequence(ops []*ir.Op, schedule []int, ds *deps.Set, numRegs int) (*Result, error) {
	a := NewAllocator(len(ops), ds, numRegs)
	for _, id := range schedule {
		if id < 0 || id >= len(ops) {
			return nil, fmt.Errorf("core: schedule references op %d of %d", id, len(ops))
		}
		a.Schedule(ops[id])
	}
	return a.Finish()
}

// WorkingSets holds the Figure 17 statistics for one region.
type WorkingSets struct {
	// ProgramOrder: one register per memory operation, allocated in
	// program order — the paper's normalizer (the straightforward
	// order-based allocation of §2.4).
	ProgramOrder int
	// PBitOnly: program-order allocation restricted to operations that
	// set alias registers (Figure 17's first bar).
	PBitOnly int
	// SMARQ: max offset + 1 achieved by the constraint-order allocation
	// with rotation (second bar).
	SMARQ int
	// LowerBound: the maximum number of alias register live ranges
	// crossing any program point (last bar) — no allocation can do
	// better (§6.2).
	LowerBound int
}

// MeasureWorkingSets derives all four Figure 17 statistics from a finished
// allocation and the region's memory operation count.
func MeasureWorkingSets(res *Result, memOps int) WorkingSets {
	return new(LowerBoundScratch).MeasureWorkingSets(res, memOps)
}

// LowerBound computes the live-range lower bound of §6.2 (see
// LowerBoundScratch.LowerBound).
func LowerBound(res *Result) int {
	return new(LowerBoundScratch).LowerBound(res)
}

// LowerBoundScratch is the working storage of the lower-bound
// measurement. The zero value is ready; a reused scratch allocates
// nothing once its buffers reach the region size.
type LowerBoundScratch struct {
	pos    []int32 // op ID -> sequence position, -1 absent
	start  []int32 // checkee ID -> live-range start position, -1 no range
	end    []int32
	deltas []int32 // sequence position -> net live-range delta
}

// MeasureWorkingSets is the package-level MeasureWorkingSets over s's
// storage.
func (s *LowerBoundScratch) MeasureWorkingSets(res *Result, memOps int) WorkingSets {
	return WorkingSets{
		ProgramOrder: memOps,
		PBitOnly:     res.Stats.PBits,
		SMARQ:        res.Stats.WorkingSet,
		LowerBound:   s.LowerBound(res),
	}
}

// LowerBound computes the live-range lower bound of §6.2: for each final
// check constraint (checker, checkee), the checkee's alias register must
// stay live from the checkee's position in the final sequence to its last
// checker's position. The maximum number of such live ranges crossing any
// point bounds every possible allocation from below.
func (s *LowerBoundScratch) LowerBound(res *Result) int {
	// Max op ID bounds the dense index space (pseudo IDs included).
	maxID := 0
	for _, op := range res.Seq {
		if op.ID > maxID {
			maxID = op.ID
		}
	}
	s.pos = resetInt32s(s.pos, maxID+1, -1)
	s.start = resetInt32s(s.start, maxID+1, -1)
	s.end = resetInt32s(s.end, maxID+1, -1)
	// deltas[i] accumulates +1 for ranges starting at position i and -1
	// for ranges ending just before i; a prefix sum replaces the sorted
	// event sweep (positions are already the sort key).
	s.deltas = resetInt32s(s.deltas, len(res.Seq)+1, 0)
	for i, op := range res.Seq {
		s.pos[op.ID] = int32(i)
	}
	for _, c := range res.Checks {
		if c[0] > maxID || c[1] > maxID {
			continue
		}
		srcPos, dstPos := s.pos[c[0]], s.pos[c[1]]
		if srcPos < 0 || dstPos < 0 {
			continue
		}
		if s.start[c[1]] < 0 {
			s.start[c[1]] = dstPos
			s.end[c[1]] = dstPos
		}
		if srcPos > s.end[c[1]] {
			s.end[c[1]] = srcPos
		}
	}
	for id := 0; id <= maxID; id++ {
		if s.start[id] < 0 {
			continue
		}
		s.deltas[s.start[id]]++
		s.deltas[s.end[id]+1]--
	}
	cur, max := int32(0), int32(0)
	for _, d := range s.deltas {
		cur += d
		if cur > max {
			max = cur
		}
	}
	return int(max)
}

// ProgramOrderSchedule returns the identity schedule over a region's ops —
// the baseline order used when speculation is disabled.
func ProgramOrderSchedule(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
