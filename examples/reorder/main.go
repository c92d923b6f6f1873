// Reorder: the paper's Figure 2/4 walkthrough on the real allocator.
//
// A store/load/store/load sequence is speculatively reordered so the loads
// execute first; the demoted stores must then check the loads' alias
// registers. This example drives the SMARQ allocator directly and prints
// the check-constraints it derived, the P/C bits, the register offsets,
// and the rotation that recycles the registers — then executes the
// annotated sequence against the ordered-queue hardware model twice: once
// with disjoint addresses (silent) and once with a genuine alias (raises
// the exception).
//
//	go run ./examples/reorder
package main

import (
	"fmt"

	"smarq/internal/alias"
	"smarq/internal/aliashw"
	"smarq/internal/core"
	"smarq/internal/deps"
	"smarq/internal/guest"
	"smarq/internal/ir"
)

func memOp(id int, kind ir.Kind, base ir.VReg) *ir.Op {
	o := &ir.Op{ID: id, Kind: kind, Dst: ir.NoVReg, AROffset: -1,
		Mem: &ir.MemInfo{Base: base, Size: 8, Root: base}}
	if kind == ir.Load {
		o.GOp = guest.Ld8
		o.Dst = ir.VReg(100 + id)
		o.Srcs = []ir.VReg{base}
		o.SrcFloat = []bool{false}
	} else {
		o.GOp = guest.St8
		o.Srcs = []ir.VReg{50, base}
		o.SrcFloat = []bool{false, false}
	}
	return o
}

func main() {
	// Original program order (Figure 2 (a) shape):
	//   M0: st [r1]    M1: ld [r2]    M2: st [r3]    M3: ld [r4]
	// All bases are distinct opaque registers: every load/store pair may
	// alias.
	ops := []*ir.Op{
		memOp(0, ir.Store, 1),
		memOp(1, ir.Load, 2),
		memOp(2, ir.Store, 3),
		memOp(3, ir.Load, 4),
	}
	ds := deps.NewSet()
	for _, d := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}} {
		ds.Add(deps.Dep{Src: d[0], Dst: d[1], Rel: alias.MayAlias,
			SrcIsStore: ops[d[0]].Kind == ir.Store,
			DstIsStore: ops[d[1]].Kind == ir.Store})
	}

	// The optimizer hoists both loads above both stores: schedule
	// M1 M3 M0 M2 (loads as early as possible, Figure 2 (b)).
	schedule := []int{1, 3, 0, 2}
	res, err := core.AllocateSequence(ops, schedule, ds, 64)
	if err != nil {
		panic(err)
	}

	fmt.Println("speculatively reordered schedule with alias annotations:")
	names := map[int]string{0: "st [r1]", 1: "ld [r2]", 2: "st [r3]", 3: "ld [r4]"}
	for _, op := range res.Seq {
		switch op.Kind {
		case ir.Rotate:
			fmt.Printf("  rotate %d\n", op.Amount)
		default:
			bits := ""
			if op.P {
				bits += "P"
			}
			if op.C {
				bits += "C"
			}
			fmt.Printf("  M%d: %-8s offset=%d bits=%-2s order=%d\n",
				op.ID, names[op.ID], op.AROffset, bits, res.Order[op.ID])
		}
	}
	fmt.Printf("\ncheck-constraints (checker -> checkee): %v\n", res.Checks)
	fmt.Printf("working set: %d registers for %d protected loads\n\n",
		res.Stats.WorkingSet, res.Stats.PBits)

	// Execute the annotated sequence against the hardware model.
	execute := func(addr map[int]uint64) *aliashw.Conflict {
		q := aliashw.NewOrderedQueue(64)
		defer q.Reset()
		for _, op := range res.Seq {
			switch op.Kind {
			case ir.Rotate:
				q.Rotate(op.Amount)
			case ir.Load, ir.Store:
				lo := addr[op.ID]
				if c, hit := q.OnMem(op.ID, op.Kind == ir.Store, op.P, op.C, op.AROffset, 0, lo, lo+8); hit {
					return &c
				}
			}
		}
		return nil
	}

	if c := execute(map[int]uint64{0: 0, 1: 64, 2: 128, 3: 192}); c != nil {
		panic("false positive on disjoint addresses")
	}
	fmt.Println("disjoint addresses: no exception (speculation pays off)")

	if c := execute(map[int]uint64{0: 64, 1: 64, 2: 128, 3: 192}); c == nil {
		panic("missed a genuine alias")
	} else {
		fmt.Printf("st [r1] aliases ld [r2]: exception, checker M%d caught M%d — the region rolls back\n",
			c.Checker, c.Origin)
	}
}
