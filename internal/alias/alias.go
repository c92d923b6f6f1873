// Package alias implements the static memory disambiguation the dynamic
// optimizer uses before falling back to hardware alias detection.
//
// As the paper argues (§1, §7), a dynamic optimizer can only afford a
// simple, fast analysis: we compare canonicalized addresses (root register
// plus constant displacement, or absolute) produced by translation. Pairs
// the analysis cannot disambiguate are "may alias" — exactly the pairs the
// optimizer speculates on and the alias hardware watches at runtime.
package alias

import (
	"fmt"
	"sort"

	"smarq/internal/ir"
)

// Relation classifies a pair of memory accesses.
type Relation uint8

const (
	// MayAlias: the analysis cannot disambiguate the pair. Speculation
	// candidates.
	MayAlias Relation = iota
	// NoAlias: provably disjoint; reorder freely with no alias check.
	NoAlias
	// PartialAlias: provably overlapping but not the identical access.
	// A definite dependence; never speculated (the check would always
	// raise an exception).
	PartialAlias
	// MustAlias: provably the identical address and size. Definite
	// dependence and the enabling condition for load/store elimination.
	MustAlias
)

var relNames = map[Relation]string{
	MayAlias: "may", NoAlias: "no", PartialAlias: "partial", MustAlias: "must",
}

// String returns the relation name.
func (r Relation) String() string { return relNames[r] }

// Definite reports whether the pair certainly overlaps at runtime.
func (r Relation) Definite() bool { return r == PartialAlias || r == MustAlias }

// Classify compares two memory accesses by their canonical addresses.
func Classify(a, b *ir.MemInfo) Relation {
	sameFrame := (a.Abs && b.Abs) || (!a.Abs && !b.Abs && a.Root == b.Root)
	if !sameFrame {
		return MayAlias
	}
	aLo, aHi := a.RootOff, a.RootOff+int64(a.Size)
	bLo, bHi := b.RootOff, b.RootOff+int64(b.Size)
	switch {
	case aHi <= bLo || bHi <= aLo:
		return NoAlias
	case aLo == bLo && a.Size == b.Size:
		return MustAlias
	default:
		return PartialAlias
	}
}

// Pair identifies an unordered pair of memory ops by region op IDs, with
// A < B.
type Pair struct {
	A, B int
}

// MakePair normalizes (x, y) into a Pair.
func MakePair(x, y int) Pair {
	if x > y {
		x, y = y, x
	}
	return Pair{x, y}
}

// Table holds the alias relations for a region's memory operations, after
// applying runtime feedback: pairs observed to alias at runtime are
// upgraded to PartialAlias so the optimizer stops speculating on them
// (Figure 1: the runtime "triggers the optimizer to re-optimize the region
// conservatively; this time it assumes the two memory operations that just
// triggered the exception are always aliased").
//
// Memory operations with the identical canonical access (root register,
// displacement, size) form a *must-alias class*. Runtime feedback is
// recorded between classes, not individual ops: when speculative load
// elimination redirects a check to a range-equivalent operation, the
// exception it raises must still harden every access to that range, or
// re-optimization would re-speculate forever.
// Table storage is dense: op IDs index flat slices (the compile pipeline
// queries Rel O(memops²) times, so the per-probe cost must be a couple of
// array loads, not hash lookups), and Build refills a table in place, so
// a reused table allocates nothing once its storage reaches the region
// size.
type Table struct {
	mems  []*ir.MemInfo // indexed by op ID; nil for non-memory ops
	class []int32       // indexed by op ID; -1 for non-memory ops
	bad   map[Pair]bool // blacklisted class pairs (small, cleared per Build)
	keys  map[classKey]int32
}

// Blacklist is the set of op pairs runtime feedback marked as aliasing.
type Blacklist map[Pair]bool

type classKey struct {
	root ir.VReg
	off  int64
	size int
	abs  bool
}

// BuildTable classifies the region's memory operations into a new table
// and applies the blacklist (see Table.Build).
func BuildTable(reg *ir.Region, bl Blacklist) *Table {
	t := new(Table)
	t.Build(reg, bl)
	return t
}

// Build classifies the region's memory operations and applies the
// blacklist, replacing the table's previous contents and reusing its
// storage. The zero Table is ready to Build.
func (t *Table) Build(reg *ir.Region, bl Blacklist) {
	n := len(reg.Ops)
	t.mems = resizeMems(t.mems, n)
	t.class = resizeClasses(t.class, n)
	if t.keys == nil {
		t.bad = make(map[Pair]bool)
		t.keys = make(map[classKey]int32)
	}
	clear(t.bad)
	clear(t.keys)
	for _, o := range reg.Ops {
		if !o.IsMem() {
			continue
		}
		t.mems[o.ID] = o.Mem
		k := classKey{root: o.Mem.Root, off: o.Mem.RootOff, size: o.Mem.Size, abs: o.Mem.Abs}
		if o.Mem.Abs {
			k.root = ir.NoVReg
		}
		id, ok := t.keys[k]
		if !ok {
			id = int32(len(t.keys))
			t.keys[k] = id
		}
		t.class[o.ID] = id
	}
	for p := range bl {
		ca, cb := t.ClassOf(p.A), t.ClassOf(p.B)
		if ca >= 0 && cb >= 0 {
			t.bad[MakePair(ca, cb)] = true
		}
	}
}

// Release does nothing; it stays only so existing callers keep compiling.
func (t *Table) Release() {}

func resizeMems(s []*ir.MemInfo, n int) []*ir.MemInfo {
	if cap(s) < n {
		return make([]*ir.MemInfo, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

func resizeClasses(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = -1
	}
	return s
}

// ClassOf returns the must-alias class of op id, or -1 when the op is not a
// memory op of the region.
func (t *Table) ClassOf(id int) int {
	if id >= 0 && id < len(t.class) {
		return int(t.class[id])
	}
	return -1
}

// Rel returns the relation between ops x and y. Unknown pairs (not both
// memory ops of the region) are MayAlias, the conservative answer.
// Blacklisted class pairs upgrade MayAlias to PartialAlias.
func (t *Table) Rel(x, y int) Relation {
	if x == y {
		return MustAlias
	}
	if x < 0 || y < 0 || x >= len(t.mems) || y >= len(t.mems) {
		return MayAlias
	}
	mx, my := t.mems[x], t.mems[y]
	if mx == nil || my == nil {
		return MayAlias
	}
	r := Classify(mx, my)
	if !r.Definite() && len(t.bad) > 0 && t.bad[MakePair(int(t.class[x]), int(t.class[y]))] {
		r = PartialAlias
	}
	return r
}

// String dumps the non-may relations for traces.
func (t *Table) String() string {
	out := ""
	ids := make([]int, 0, len(t.mems))
	for id, m := range t.mems {
		if m != nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if r := t.Rel(ids[i], ids[j]); r != MayAlias {
				out += fmt.Sprintf("(%d,%d):%s ", ids[i], ids[j], r)
			}
		}
	}
	return out
}
