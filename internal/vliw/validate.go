// Install-time result validation: a content checksum over the frozen
// compile result plus structural invariant checks, so a corrupted
// ("poisoned") compile — a host bug, a bad worker, an injected fault —
// is rejected at the install point instead of dispatched. The checksum
// is stamped on the worker right after the pipeline finishes and
// recomputed on the simulation thread at install; the structural check
// catches corruption that happened before the stamp (a consistent hash
// over broken contents proves nothing).
package vliw

import (
	"fmt"
	"math"

	"smarq/internal/guest"
	"smarq/internal/ir"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

func fnvInt(h uint64, v int64) uint64 { return fnvWord(h, uint64(v)) }

func fnvBool(h uint64, b bool) uint64 {
	if b {
		return fnvWord(h, 1)
	}
	return fnvWord(h, 0)
}

// Checksum returns the FNV-1a content hash of the compiled region: every
// field of every scheduled op (including the alias-register annotations
// the executor trusts), the region's shape and live-out maps, and the
// precomputed cycle cost. Any single-field corruption of the frozen
// slabs changes the hash.
func (cr *CompiledRegion) Checksum() uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, cr.Cycles)
	h = fnvInt(h, int64(cr.GuestInsts))
	h = fnvInt(h, int64(len(cr.Seq)))
	for _, o := range cr.Seq {
		h = fnvInt(h, int64(o.ID))
		h = fnvInt(h, int64(o.Kind))
		h = fnvInt(h, int64(o.GOp))
		h = fnvInt(h, int64(o.Dst))
		h = fnvBool(h, o.DstFloat)
		h = fnvInt(h, int64(len(o.Srcs)))
		for i, s := range o.Srcs {
			h = fnvInt(h, int64(s))
			h = fnvBool(h, o.SrcFloat[i])
		}
		h = fnvInt(h, o.Imm)
		h = fnvWord(h, math.Float64bits(o.FImm))
		if o.Mem != nil {
			h = fnvInt(h, int64(o.Mem.Base))
			h = fnvInt(h, o.Mem.Off)
			h = fnvInt(h, int64(o.Mem.Size))
			h = fnvInt(h, int64(o.Mem.Root))
			h = fnvInt(h, o.Mem.RootOff)
			h = fnvBool(h, o.Mem.Abs)
		}
		h = fnvBool(h, o.OnTraceTaken)
		h = fnvInt(h, int64(o.OffTrace))
		h = fnvInt(h, int64(o.AROffset))
		h = fnvWord(h, uint64(o.ARMask))
		h = fnvBool(h, o.P)
		h = fnvBool(h, o.C)
		h = fnvInt(h, int64(o.Amount))
		h = fnvInt(h, int64(o.SrcOff))
		h = fnvInt(h, int64(o.DstOff))
	}
	reg := cr.Region
	h = fnvInt(h, int64(reg.NumVRegs))
	h = fnvInt(h, int64(reg.Entry))
	h = fnvInt(h, int64(reg.FinalTarget))
	h = fnvInt(h, int64(len(reg.Ops)))
	for r := 0; r < guest.NumRegs; r++ {
		h = fnvInt(h, int64(reg.IntOut[r]))
		h = fnvInt(h, int64(reg.FloatOut[r]))
	}
	return h
}

// Validate checks the structural invariants a dispatchable compile result
// must satisfy: the schedule is non-empty and consistent with its
// lowered form, op counts bound each other (a schedule only ever adds
// allocator ops to the region's), every vreg the live-out maps and the
// scheduled ops name is in range, every memory access is 1, 2, 4 or 8
// bytes wide, no alias-register operand is negative, and the cycle cost
// is positive. It is the second validation layer
// behind Checksum — corruption that predates the checksum stamp must fail
// here.
func (cr *CompiledRegion) Validate() error {
	reg := cr.Region
	if reg == nil {
		return fmt.Errorf("vliw: compiled region has no IR region")
	}
	if len(cr.Seq) == 0 {
		return fmt.Errorf("vliw: empty schedule")
	}
	if len(cr.dec) < len(cr.Seq) {
		return fmt.Errorf("vliw: %d lowered ops for %d scheduled", len(cr.dec), len(cr.Seq))
	}
	if len(cr.Seq) < len(reg.Ops) {
		// Scheduling never deletes ops; eliminations rewrite them in
		// place. Fewer scheduled ops than region ops means a truncated
		// slab.
		return fmt.Errorf("vliw: schedule has %d ops, region has %d", len(cr.Seq), len(reg.Ops))
	}
	if cr.Cycles <= 0 {
		return fmt.Errorf("vliw: nonpositive cycle cost %d", cr.Cycles)
	}
	if cr.GuestInsts <= 0 {
		return fmt.Errorf("vliw: nonpositive guest instruction count %d", cr.GuestInsts)
	}
	if err := reg.Validate(); err != nil {
		return fmt.Errorf("vliw: region invariants: %w", err)
	}
	for i, o := range cr.Seq {
		if o == nil {
			return fmt.Errorf("vliw: nil op at schedule slot %d", i)
		}
		if o.Dst != ir.NoVReg && (o.Dst < 0 || int(o.Dst) >= reg.NumVRegs) {
			return fmt.Errorf("vliw: schedule slot %d: dst v%d out of range [0,%d)", i, o.Dst, reg.NumVRegs)
		}
		for _, s := range o.Srcs {
			if s != ir.NoVReg && (s < 0 || int(s) >= reg.NumVRegs) {
				return fmt.Errorf("vliw: schedule slot %d: src v%d out of range [0,%d)", i, s, reg.NumVRegs)
			}
		}
		if o.IsMem() && o.Mem == nil {
			return fmt.Errorf("vliw: schedule slot %d: memory op without MemInfo", i)
		}
		if o.IsMem() && o.Mem.Size != 1 && o.Mem.Size != 2 && o.Mem.Size != 4 && o.Mem.Size != 8 {
			return fmt.Errorf("vliw: schedule slot %d: %d-byte memory access", i, o.Mem.Size)
		}
		// Alias operands the detector indexes with. A C-only op may carry
		// -1 (the bit-mask hardware names its registers in ARMask), but
		// a P op always claims a register.
		if o.IsMem() && o.P && o.AROffset < 0 {
			return fmt.Errorf("vliw: schedule slot %d: P op with alias register offset %d", i, o.AROffset)
		}
		if o.Kind == ir.AMov && (o.SrcOff < 0 || o.DstOff < 0) {
			return fmt.Errorf("vliw: schedule slot %d: AMOV offsets %d->%d", i, o.SrcOff, o.DstOff)
		}
		if o.Kind == ir.Rotate && o.Amount < 0 {
			return fmt.Errorf("vliw: schedule slot %d: negative rotation %d", i, o.Amount)
		}
	}
	for r := 0; r < guest.NumRegs; r++ {
		if v := reg.IntOut[r]; v < 0 || int(v) >= reg.NumVRegs {
			return fmt.Errorf("vliw: live-out int r%d maps to v%d out of range", r, v)
		}
		if v := reg.FloatOut[r]; v < 0 || int(v) >= reg.NumVRegs {
			return fmt.Errorf("vliw: live-out float f%d maps to v%d out of range", r, v)
		}
	}
	return nil
}

// ValidateQueue checks a region compiled for an n-register ordered alias
// queue: every memory op with a P or C bit, and both operands of every
// AMOV, name a register offset in [0, n). The queue refuses any other
// memory-op offset at execution time, and the allocator never emits an
// AMOV outside the window, so a result that fails here must not be
// installed.
func (cr *CompiledRegion) ValidateQueue(n int) error {
	in := func(off int) bool { return off >= 0 && off < n }
	for i, o := range cr.Seq {
		if o.IsMem() && (o.P || o.C) && !in(o.AROffset) {
			return fmt.Errorf("vliw: schedule slot %d: alias register offset %d outside a %d-register queue", i, o.AROffset, n)
		}
		if o.Kind == ir.AMov && (!in(o.SrcOff) || !in(o.DstOff)) {
			return fmt.Errorf("vliw: schedule slot %d: AMOV offsets %d->%d outside a %d-register queue", i, o.SrcOff, o.DstOff, n)
		}
	}
	return nil
}
