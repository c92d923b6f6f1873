package vliw_test

import (
	"strings"
	"testing"

	"smarq/internal/aliashw"
	"smarq/internal/guest"
	"smarq/internal/ir"
	"smarq/internal/sched"
	"smarq/internal/vliw"
)

// aliasRegion compiles a small region whose loads and stores carry alias
// annotations, then returns a copy of its schedule with extra appended
// for the test to corrupt.
func aliasRegion(t *testing.T, extra ...*ir.Op) (*vliw.CompiledRegion, []*ir.Op) {
	t.Helper()
	cr, _ := compileGuest(t, 0, sched.HWOrdered, func(b *guest.Builder) {
		b.NewBlock()
		b.Li(1, 64)
		b.Li(2, 128)
		b.Ld8(3, 1, 0)
		b.St8(2, 0, 3)
		b.Ld8(4, 1, 8)
		b.St8(1, 16, 4)
		b.Halt()
	})
	seq := append(append([]*ir.Op(nil), cr.Seq...), extra...)
	return cr, seq
}

// TestValidateRejectsNegativeAliasOperands: an AMOV, rotation or P op
// with a negative alias-register operand, or a memory access of no real
// width, is refused at install instead of reaching the executor, where a
// negative AMOV source indexed out of range inside Execute.
func TestValidateRejectsNegativeAliasOperands(t *testing.T) {
	cr, seq := aliasRegion(t)
	if err := cr.Validate(); err != nil {
		t.Fatalf("well-formed region rejected: %v", err)
	}
	if err := cr.ValidateQueue(64); err != nil {
		t.Fatalf("well-formed region rejected by a 64-register queue: %v", err)
	}
	reg, machine := cr.Region, vliw.DefaultConfig()

	cases := []struct {
		name string
		op   *ir.Op
		want string
	}{
		{"amov-src", &ir.Op{ID: len(seq), Kind: ir.AMov, Dst: ir.NoVReg, AROffset: -1, SrcOff: -1, DstOff: 0}, "AMOV"},
		{"amov-dst", &ir.Op{ID: len(seq), Kind: ir.AMov, Dst: ir.NoVReg, AROffset: -1, SrcOff: 0, DstOff: -2}, "AMOV"},
		{"rotate", &ir.Op{ID: len(seq), Kind: ir.Rotate, Dst: ir.NoVReg, AROffset: -1, Amount: -1}, "rotation"},
	}
	for _, c := range cases {
		bad := machine.Compile(append(append([]*ir.Op(nil), seq...), c.op), reg, cr.GuestInsts)
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.want)
		}
	}

	// The refused AMOV is exactly the one that used to panic mid-region.
	bad := machine.Compile(append(append([]*ir.Op(nil), seq...), cases[0].op), reg, cr.GuestInsts)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("executing AMOV with SrcOff -1 did not panic; the install-time refusal guards nothing")
			}
		}()
		vliw.Execute(bad, &guest.State{}, guest.NewMemory(4096), aliashw.NewOrderedQueue(64))
	}()

	// A P op must name a register; a C-only op may carry -1 (the bit-mask
	// hardware names its registers in the mask).
	var mem *ir.Op
	for _, o := range seq {
		if o.IsMem() {
			mem = o
			break
		}
	}
	saved := *mem
	defer func() { *mem = saved }()
	mem.P, mem.C, mem.AROffset = true, false, -1
	if err := machine.Compile(seq, reg, cr.GuestInsts).Validate(); err == nil {
		t.Error("P op with alias register offset -1 passed Validate")
	}
	mem.P, mem.C, mem.AROffset = false, true, -1
	if err := machine.Compile(seq, reg, cr.GuestInsts).Validate(); err != nil {
		t.Errorf("C-only op with offset -1 rejected: %v", err)
	}

	// The lowered stream holds a width in one byte; only real widths pass.
	*mem = saved
	width := *mem.Mem
	defer func() { *mem.Mem = width }()
	mem.Mem.Size = 3
	if err := machine.Compile(seq, reg, cr.GuestInsts).Validate(); err == nil {
		t.Error("3-byte memory access passed Validate")
	}
}

// TestValidateQueueBoundsOffsets: ValidateQueue refuses an annotated
// memory op or an AMOV whose offset does not fit the ordered queue's
// register file.
func TestValidateQueueBoundsOffsets(t *testing.T) {
	cr, seq := aliasRegion(t)
	var mem *ir.Op
	for _, o := range seq {
		if o.IsMem() {
			mem = o
			break
		}
	}
	saved := *mem
	defer func() { *mem = saved }()
	mem.P, mem.AROffset = true, 8
	bad := vliw.DefaultConfig().Compile(seq, cr.Region, cr.GuestInsts)
	if err := bad.Validate(); err != nil {
		t.Fatalf("structural Validate rejected an in-range offset: %v", err)
	}
	if err := bad.ValidateQueue(9); err != nil {
		t.Errorf("offset 8 rejected by a 9-register queue: %v", err)
	}
	if err := bad.ValidateQueue(8); err == nil {
		t.Error("offset 8 accepted by an 8-register queue")
	}

	*mem = saved
	amov := &ir.Op{ID: len(seq), Kind: ir.AMov, Dst: ir.NoVReg, AROffset: -1, SrcOff: 1, DstOff: 8}
	bad = vliw.DefaultConfig().Compile(append(seq, amov), cr.Region, cr.GuestInsts)
	if err := bad.ValidateQueue(9); err != nil {
		t.Errorf("AMOV 1->8 rejected by a 9-register queue: %v", err)
	}
	if err := bad.ValidateQueue(8); err == nil {
		t.Error("AMOV 1->8 accepted by an 8-register queue")
	}
}
