// Package deps computes the memory dependences that drive SMARQ's
// constraint analysis (§4.1 of the paper).
//
// The base rule is [DEPENDENCE]: X →dep Y if X precedes Y in the original
// program order, X and Y may (including must) access the same memory
// location, and at least one of them is a store.
//
// Speculative load and store elimination add *extended* dependences
// ([EXTENDED-DEPENDENCE 1] and [EXTENDED-DEPENDENCE 2]) that run in the
// backward execution order of the original program; they are what makes a
// check-constraint fire between memory operations that were never
// reordered (§2.4, Figure 5), and they are the reason the constraint graph
// can contain cycles (§5.2).
package deps

import (
	"fmt"
	"sort"

	"smarq/internal/alias"
	"smarq/internal/ir"
)

// Dep is one dependence edge Src →dep Dst in the paper's notation.
// For base dependences Src < Dst (original order); extended dependences run
// backward (Src > Dst).
type Dep struct {
	Src, Dst int
	// Rel is the alias relation between the two accesses.
	Rel alias.Relation
	// Extended marks dependences added by load/store elimination.
	Extended bool
	// SrcIsStore and DstIsStore record the op kinds; the scheduler's
	// hardware-specific reorderability rules need them (e.g. ALAT cannot
	// check store-store reorderings).
	SrcIsStore, DstIsStore bool
}

func (d Dep) String() string {
	kind := "dep"
	if d.Extended {
		kind = "xdep"
	}
	return fmt.Sprintf("%d ->%s %d (%s)", d.Src, kind, d.Dst, d.Rel)
}

// Set holds a region's dependences with lookup by either endpoint.
type Set struct {
	All []Dep
	// byDst groups dependences by their Dst op (slice-indexed — op IDs are
	// dense): the constraint builder examines each dependence once, when
	// its Dst is scheduled (Figure 13 line 8). Duplicate suppression scans
	// the per-dst group, which stays short (bounded by the region's memory
	// ops), instead of keeping a separate hash set.
	byDst [][]Dep
	// memIDs is scratch for Compute: the region's memory-op IDs, reused
	// across compiles so a reused set allocates nothing once warm.
	memIDs []int32
}

// NewSet returns an empty dependence set.
func NewSet() *Set {
	return &Set{}
}

// reset empties the set, keeping its storage, and sizes it for numOps
// destination groups.
func (s *Set) reset(numOps int) {
	s.All = s.All[:0]
	s.memIDs = s.memIDs[:0]
	if cap(s.byDst) < numOps {
		s.byDst = make([][]Dep, numOps)
	} else {
		s.byDst = s.byDst[:numOps]
		for i := range s.byDst {
			s.byDst[i] = s.byDst[i][:0]
		}
	}
}

// Release does nothing; it stays only so existing callers keep compiling.
func (s *Set) Release() {}

// Add inserts a dependence, ignoring duplicates of the same direction.
func (s *Set) Add(d Dep) {
	if d.Src == d.Dst || s.Has(d.Src, d.Dst) {
		return
	}
	for len(s.byDst) <= d.Dst {
		s.byDst = append(s.byDst, nil)
	}
	s.byDst[d.Dst] = append(s.byDst[d.Dst], d)
	s.All = append(s.All, d)
}

// ByDst returns the dependences whose Dst is the given op. The returned
// slice is the set's own grouping (not a copy) — callers must not mutate
// it.
func (s *Set) ByDst(op int) []Dep {
	if op >= 0 && op < len(s.byDst) {
		return s.byDst[op]
	}
	return nil
}

// Has reports whether the edge src →dep dst exists.
func (s *Set) Has(src, dst int) bool {
	for _, d := range s.ByDst(dst) {
		if d.Src == src {
			return true
		}
	}
	return false
}

// Counts returns (base, extended) dependence counts.
func (s *Set) Counts() (base, extended int) {
	for _, d := range s.All {
		if d.Extended {
			extended++
		} else {
			base++
		}
	}
	return base, extended
}

// Compute builds the base dependences of a region per [DEPENDENCE], using
// the alias table for disambiguation: provably disjoint pairs (NoAlias)
// carry no dependence — this is the "compiler can easily disambiguate
// them" case of Figure 7 (c).
func Compute(reg *ir.Region, tbl *alias.Table) *Set {
	s := NewSet()
	s.Compute(reg, tbl)
	return s
}

// Compute replaces s's contents with the region's base dependences (see
// the package-level Compute), reusing s's storage.
func (s *Set) Compute(reg *ir.Region, tbl *alias.Table) {
	s.reset(len(reg.Ops))
	for _, o := range reg.Ops {
		if o.IsMem() {
			s.memIDs = append(s.memIDs, int32(o.ID))
		}
	}
	mem := s.memIDs
	for i := 0; i < len(mem); i++ {
		for j := i + 1; j < len(mem); j++ {
			x, y := reg.Ops[mem[i]], reg.Ops[mem[j]]
			if x.Kind != ir.Store && y.Kind != ir.Store {
				continue
			}
			rel := tbl.Rel(x.ID, y.ID)
			if rel == alias.NoAlias {
				continue
			}
			s.Add(Dep{
				Src: x.ID, Dst: y.ID, Rel: rel,
				SrcIsStore: x.Kind == ir.Store,
				DstIsStore: y.Kind == ir.Store,
			})
		}
	}
}

// AddExtendedLoadElim applies [EXTENDED-DEPENDENCE 1]: a load z was
// eliminated by forwarding from the earlier memory operation x. Every store
// w strictly between x and z (original order) that may alias the forwarded
// location must end up checked against it, so we add the backward
// dependence w →dep x.
//
// The paper's rule text reads "for all loads Y" but its own example and the
// correctness argument (§4.1: the forwarded value is stale iff an
// intervening *store* hits the location) show the intervening writers are
// what matters; we add the edge for intervening stores. Stores that
// provably do not alias the location add nothing.
func AddExtendedLoadElim(s *Set, reg *ir.Region, tbl *alias.Table, x, z int) {
	// Walk the op range directly rather than materializing MemOps() — this
	// runs once per eliminated load, so the temporary slice was a
	// measurable share of compile-path allocations.
	lo, hi := x+1, z
	if lo < 0 {
		lo = 0
	}
	if hi > len(reg.Ops) {
		hi = len(reg.Ops)
	}
	for id := lo; id < hi; id++ {
		w := reg.Ops[id]
		if w.Kind != ir.Store {
			continue
		}
		if tbl.Rel(w.ID, x) == alias.NoAlias {
			continue
		}
		s.Add(Dep{
			Src: w.ID, Dst: x, Rel: tbl.Rel(w.ID, x), Extended: true,
			SrcIsStore: true,
			DstIsStore: reg.Ops[x].Kind == ir.Store,
		})
	}
}

// AddExtendedStoreElim applies [EXTENDED-DEPENDENCE 2]: store x was
// eliminated because the later store z overwrites the same location. Every
// load y strictly between x and z (in the *original* program) that may
// alias z must be checked by z, so we add the backward dependence z →dep y.
// Intervening *stores* need no edge — the paper points out their aliasing
// cannot affect the correctness of the elimination.
//
// When an intervening load y was itself eliminated by speculative load
// elimination, its access no longer exists to be checked; the dependence is
// redirected to y's forwarding source (given by loadElimSource), whose
// access range is identical (forwarding requires must-alias), so z's check
// covers the same addresses.
func AddExtendedStoreElim(s *Set, reg *ir.Region, tbl *alias.Table, x, z int, loadElimSource map[int]int) {
	for id := x + 1; id < z && id < len(reg.Ops); id++ {
		o := reg.Ops[id]
		target := -1
		switch {
		case o.Kind == ir.Load:
			target = id
		default:
			if src, ok := loadElimSource[id]; ok {
				target = src
			}
		}
		if target == -1 {
			continue
		}
		rel := tbl.Rel(z, id) // relation of the original load's range to z
		if rel == alias.NoAlias {
			continue
		}
		s.Add(Dep{
			Src: z, Dst: target, Rel: rel, Extended: true,
			SrcIsStore: true,
			DstIsStore: reg.Ops[target].Kind == ir.Store,
		})
	}
}

// Sorted returns the dependences ordered by (Src, Dst) for deterministic
// output in traces and tests.
func (s *Set) Sorted() []Dep {
	out := make([]Dep, len(s.All))
	copy(out, s.All)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}
