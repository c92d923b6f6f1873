// Package opt implements the speculative memory optimizations of §4:
// load elimination (forwarding from an earlier must-alias access) and
// store elimination (removing a store overwritten by a later must-alias
// store). Both are *speculative* when the optimizer tolerates intervening
// may-alias accesses and relies on the alias hardware — via the extended
// dependences of §4.1 — to detect miscompilation at runtime; in
// non-speculative mode (no alias hardware) only provably safe eliminations
// are performed.
//
// Pass order matters and is load-bearing (see DESIGN.md): store elimination
// runs first, so load elimination never forwards from a store that was
// removed; eliminated intervening loads are handled by redirecting
// [EXTENDED-DEPENDENCE 2] edges to their forwarding sources
// (deps.AddExtendedStoreElim).
package opt

import (
	"smarq/internal/alias"
	"smarq/internal/deps"
	"smarq/internal/guest"
	"smarq/internal/ir"
)

// Config selects which eliminations run and whether they may speculate.
type Config struct {
	LoadElim  bool
	StoreElim bool
	// Speculative permits intervening may-alias accesses, to be checked by
	// the alias hardware. Without alias hardware it must be false.
	Speculative bool
}

// ElimKind distinguishes the two eliminations.
type ElimKind uint8

const (
	// LoadElim: Z (a load) was removed, its value forwarded from X.
	LoadElim ElimKind = iota
	// StoreElim: X (a store) was removed, overwritten by Z.
	StoreElim
)

// Elim records one elimination for extended-dependence construction.
type Elim struct {
	Kind ElimKind
	X, Z int
}

// Result reports what the passes did.
type Result struct {
	Elims []Elim
	// LoadElimSource maps each eliminated load to its forwarding source.
	LoadElimSource map[int]int
	LoadsRemoved   int
	StoresRemoved  int
	// eliminated is scratch for runStoreElim, indexed by op ID.
	eliminated []bool
}

// Run applies the configured eliminations to reg in place and reports
// them in a new Result (see Result.Run).
func Run(reg *ir.Region, tbl *alias.Table, cfg Config) *Result {
	res := new(Result)
	res.Run(reg, tbl, cfg)
	return res
}

// Run applies the configured eliminations to reg in place and records
// them in res, replacing its previous contents and reusing its storage.
// The alias table must have been built from the region *before* this
// call (it keeps the original access info for ops that get eliminated).
// The zero Result is ready to Run.
func (res *Result) Run(reg *ir.Region, tbl *alias.Table, cfg Config) {
	res.Elims = res.Elims[:0]
	if res.LoadElimSource == nil {
		res.LoadElimSource = make(map[int]int)
	}
	clear(res.LoadElimSource)
	res.LoadsRemoved, res.StoresRemoved = 0, 0
	if cap(res.eliminated) < len(reg.Ops) {
		res.eliminated = make([]bool, len(reg.Ops))
	} else {
		res.eliminated = res.eliminated[:len(reg.Ops)]
		for i := range res.eliminated {
			res.eliminated[i] = false
		}
	}
	if cfg.StoreElim {
		runStoreElim(reg, tbl, cfg, res)
	}
	if cfg.LoadElim {
		runLoadElim(reg, tbl, cfg, res)
	}
}

// Release does nothing; it stays only so existing callers keep compiling.
func (r *Result) Release() {}

// AddExtendedDeps inserts the extended dependences for every elimination
// (to be called after base dependences are computed).
func AddExtendedDeps(s *deps.Set, reg *ir.Region, tbl *alias.Table, res *Result) {
	for _, e := range res.Elims {
		switch e.Kind {
		case LoadElim:
			deps.AddExtendedLoadElim(s, reg, tbl, e.X, e.Z)
		case StoreElim:
			deps.AddExtendedStoreElim(s, reg, tbl, e.X, e.Z, res.LoadElimSource)
		}
	}
}

// runStoreElim removes stores overwritten by a later must-alias store. The
// scan runs backward so a store can only be eliminated against a surviving
// overwriter. An intervening load with a *definite* overlap forbids the
// elimination outright; a may-alias load is tolerated only speculatively.
func runStoreElim(reg *ir.Region, tbl *alias.Table, cfg Config, res *Result) {
	ops := reg.Ops
	eliminated := res.eliminated
	for x := len(ops) - 1; x >= 0; x-- {
		if ops[x].Kind != ir.Store {
			continue
		}
	scan:
		for z := x + 1; z < len(ops); z++ {
			o := ops[z]
			if !o.IsMem() {
				continue
			}
			rel := tbl.Rel(x, z)
			switch {
			case o.Kind == ir.Load:
				if rel.Definite() {
					break scan // the load certainly reads x's value
				}
				if rel == alias.MayAlias && !cfg.Speculative {
					break scan
				}
			case o.Kind == ir.Store:
				if rel == alias.MustAlias && !eliminated[z] {
					// z fully overwrites x: eliminate x.
					res.Elims = append(res.Elims, Elim{Kind: StoreElim, X: x, Z: z})
					res.StoresRemoved++
					eliminated[x] = true
					killOp(ops[x])
					break scan
				}
				// Partial or may-alias stores never block store
				// elimination (§4.1): their aliasing cannot change the
				// final memory state once z overwrites x's whole range.
			}
		}
	}
}

// runLoadElim forwards loads from the closest earlier must-alias access.
// Integer store-to-load forwarding is restricted to full-width (8-byte)
// accesses: a narrower store truncates and a narrower load zero-extends,
// so the register value is not the loaded value.
func runLoadElim(reg *ir.Region, tbl *alias.Table, cfg Config, res *Result) {
	ops := reg.Ops
	for z := 0; z < len(ops); z++ {
		o := ops[z]
		if o.Kind != ir.Load {
			continue
		}
	scan:
		for x := z - 1; x >= 0; x-- {
			src := ops[x]
			if !src.IsMem() {
				continue
			}
			rel := tbl.Rel(x, z)
			switch {
			case rel == alias.MustAlias:
				var val ir.VReg
				var valFloat bool
				if src.Kind == ir.Load {
					val, valFloat = src.Dst, src.DstFloat
				} else {
					val, valFloat = src.Srcs[0], src.SrcFloat[0]
					if o.Mem.Size != 8 {
						break scan // narrow store-to-load: bit patterns differ
					}
				}
				if valFloat != o.DstFloat {
					break scan // crossing register files needs a bit cast
				}
				res.Elims = append(res.Elims, Elim{Kind: LoadElim, X: x, Z: z})
				res.LoadElimSource[z] = x
				res.LoadsRemoved++
				toCopy(o, val, valFloat)
				break scan
			case src.Kind == ir.Store && rel == alias.PartialAlias:
				break scan // definite partial clobber: no forwarding past it
			case src.Kind == ir.Store && rel == alias.MayAlias && !cfg.Speculative:
				break scan
			}
		}
	}
}

// killOp turns an eliminated store into a no-op placeholder, keeping op IDs
// dense and stable across re-optimization.
func killOp(o *ir.Op) {
	o.Kind = ir.Arith
	o.GOp = guest.Nop
	o.Dst = ir.NoVReg
	o.Srcs = nil
	o.SrcFloat = nil
	o.Mem = nil
}

// toCopy turns an eliminated load into a register copy from the forwarded
// value.
func toCopy(o *ir.Op, val ir.VReg, valFloat bool) {
	o.Kind = ir.Copy
	o.GOp = guest.Nop
	o.Srcs = []ir.VReg{val}
	o.SrcFloat = []bool{valFloat}
	o.Mem = nil
}
