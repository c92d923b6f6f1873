// The allocation-free region execution engine.
//
// Compile lowers the scheduled []*ir.Op sequence into a flat array of
// decOp value structs, each carrying one dense opcode (xop) that already
// folds the op's kind, guest opcode, access width, register file and
// whether it carries a P or C alias bit. The execute loop is then a
// single switch over that opcode with the arithmetic inlined. The stream
// is detector-independent — one compiled region serves every tenant of a
// shared code cache — so the detector is resolved once per entry instead:
// an unannotated memory op skips the detector call wherever that call is
// a no-op, the ordered queue is called directly, and every other detector
// takes the generic memory path. ExecContext owns the reusable per-system
// state — the virtual register files and one pooled atomic.Region — so a
// committed region entry performs zero heap allocations. executeRef in
// machine.go preserves the original semantics; differential tests hold
// the two engines bit-identical.

package vliw

import (
	"fmt"
	"math"

	"smarq/internal/aliashw"
	"smarq/internal/atomic"
	"smarq/internal/guest"
	"smarq/internal/ir"
)

// xop is a lowered opcode. The arithmetic opcodes equal their
// guest.Opcode numerically, so an Arith op lowers with a cast.
type xop uint8

const (
	xCopyI xop = xop(guest.CvtFI) + 1 + iota // vri[dst] = vri[src0]
	xCopyF                                   // vrf[dst] = vrf[src0]

	// Loads by width and destination file. Each plain form is preceded by
	// its annotated form (the op carries a P or C bit), which performs
	// the alias check and falls through into the access.
	xLd1A
	xLd1
	xLd2A
	xLd2
	xLd4A
	xLd4
	xLd8A
	xLd8
	xLdF8A
	xLdF8
	// xLdAny is any other width/file pairing (only hand-built regions
	// have one); it always takes the generic memory path.
	xLdAny

	// Stores, mirroring the loads; src0 is the stored value.
	xSt1A
	xSt1
	xSt2A
	xSt2
	xSt4A
	xSt4
	xSt8A
	xSt8
	xStF8A
	xStF8
	xStAny

	// Guards, lowered to their exit condition on (src0, src1): a guard
	// leaves the region when its branch disagrees with the trace.
	xExitEq
	xExitNe
	xExitLt
	xExitGe

	xRotate // detector Rotate(imm)
	xAMov   // detector AMov(src0, dst)

	// Commit write-back of one live-out register, st.R[dst] = vri[src0]
	// or st.F[dst] = vrf[src0]. They follow the region's ops, so only a
	// region that ran to the end reaches them.
	xOutI
	xOutF
)

// decOp is one lowered operation: every field the execute loop needs,
// flattened out of ir.Op (and its Srcs/SrcFloat slices and *MemInfo)
// into a 40-byte value struct.
type decOp struct {
	// imm is the Li/Addi/Muli immediate, the FLi constant's bits, a
	// memory op's displacement, or a Rotate amount.
	imm  int64
	id   int32 // original op ID — the alias-conflict identity
	dst  int32 // destination vreg; AMov destination offset
	src0 int32 // first source vreg (a store's value); AMov source offset
	src1 int32
	base int32 // memory address base vreg

	arOffset int32
	arMask   uint16
	code     xop
	p, c     bool
	// size and float restate a memory op's width and value file for the
	// generic memory path, which serves every width.
	size  uint8
	float bool
}

// ldCodes and stCodes index the plain memory opcodes by width; the float
// forms and the generic fallback are picked in lower.
var (
	ldCodes = [9]xop{1: xLd1, 2: xLd2, 4: xLd4, 8: xLd8}
	stCodes = [9]xop{1: xSt1, 2: xSt2, 4: xSt4, 8: xSt8}
)

// memCode lowers a memory access to its opcode: the plain form for its
// width and file, or the annotated form just before it when the op
// carries a P or C bit, or the generic form for a pairing without a fast
// path.
func memCode(codes *[9]xop, fcode, anyCode xop, size int, float, alias bool) xop {
	var code xop
	switch {
	case float && size == 8:
		code = fcode
	case !float && size >= 1 && size <= 8 && codes[size] != 0:
		code = codes[size]
	default:
		return anyCode
	}
	if alias {
		code--
	}
	return code
}

// guardCodes maps a guard's branch opcode to the exit condition for a
// trace that does not take it; taken traces use the negation.
var guardCodes = map[guest.Opcode][2]xop{
	guest.Beq: {xExitEq, xExitNe},
	guest.Bne: {xExitNe, xExitEq},
	guest.Blt: {xExitLt, xExitGe},
	guest.Bge: {xExitGe, xExitLt},
}

// lower flattens a scheduled sequence into the executable form: one
// lowered op per scheduled op, then the write-backs of the live-out
// registers a commit can change. A guest register whose live-out is its
// own live-in vreg, which no op redefines, still holds its entry value
// and needs none. Unknown kinds, arithmetic opcodes and guard opcodes
// fail at compile time rather than execution time.
func lower(seq []*ir.Op, reg *ir.Region) []decOp {
	const nr = guest.NumRegs
	var written uint64 // live-in vregs some op redefines
	for _, op := range seq {
		if op.Dst >= 0 && op.Dst < 2*nr {
			written |= 1 << uint(op.Dst)
		}
	}
	changed := func(out, in ir.VReg) bool { return out != in || written&(1<<uint(in)) != 0 }
	nout := 0
	for r := guest.Reg(0); r < nr; r++ {
		if changed(reg.IntOut[r], ir.LiveInInt(r)) {
			nout++
		}
		if changed(reg.FloatOut[r], ir.LiveInFloat(r)) {
			nout++
		}
	}
	dec := make([]decOp, len(seq), len(seq)+nout)
	for i, op := range seq {
		d := &dec[i]
		d.id = int32(op.ID)
		d.dst = int32(op.Dst)
		d.src0, d.src1 = int32(ir.NoVReg), int32(ir.NoVReg)
		if len(op.Srcs) > 0 {
			d.src0 = int32(op.Srcs[0])
		}
		if len(op.Srcs) > 1 {
			d.src1 = int32(op.Srcs[1])
		}
		d.imm = op.Imm
		d.arOffset = int32(op.AROffset)
		d.arMask = op.ARMask
		d.p, d.c = op.P, op.C
		switch op.Kind {
		case ir.Arith:
			if op.GOp > guest.CvtFI {
				panic(fmt.Sprintf("vliw: cannot lower arith op %s", op.GOp))
			}
			d.code = xop(op.GOp)
			if op.GOp == guest.FLi {
				d.imm = int64(math.Float64bits(op.FImm))
			}
		case ir.Copy:
			d.code = xCopyI
			if op.DstFloat {
				d.code = xCopyF
			}
		case ir.Load, ir.Store:
			d.base = int32(op.Mem.Base)
			d.imm = op.Mem.Off
			d.size = uint8(op.Mem.Size)
			if op.Kind == ir.Load {
				d.float = op.DstFloat
				d.code = memCode(&ldCodes, xLdF8, xLdAny, op.Mem.Size, d.float, op.P || op.C)
			} else {
				d.float = op.SrcFloat[0]
				d.code = memCode(&stCodes, xStF8, xStAny, op.Mem.Size, d.float, op.P || op.C)
			}
		case ir.Guard:
			codes, ok := guardCodes[op.GOp]
			if !ok {
				panic(fmt.Sprintf("vliw: guard with opcode %s", op.GOp))
			}
			d.code = codes[0]
			if op.OnTraceTaken {
				d.code = codes[1]
			}
		case ir.Rotate:
			d.code = xRotate
			d.imm = int64(op.Amount)
		case ir.AMov:
			d.code = xAMov
			d.src0, d.dst = int32(op.SrcOff), int32(op.DstOff)
		default:
			panic(fmt.Sprintf("vliw: cannot decode op kind %v", op.Kind))
		}
	}
	for r := guest.Reg(0); r < nr; r++ {
		if changed(reg.IntOut[r], ir.LiveInInt(r)) {
			dec = append(dec, decOp{code: xOutI, dst: int32(r), src0: int32(reg.IntOut[r])})
		}
		if changed(reg.FloatOut[r], ir.LiveInFloat(r)) {
			dec = append(dec, decOp{code: xOutF, dst: int32(r), src0: int32(reg.FloatOut[r])})
		}
	}
	return dec
}

// highWater is the alias-register occupancy high-water mark of executing
// the ops of dec: the highest queue slot (+1) a P-bit memory op among
// them claimed.
func highWater(dec []decOp) int {
	hw := int32(0)
	for i := range dec {
		if op := &dec[i]; op.code >= xLd1A && op.code <= xStAny && op.p && op.arOffset+1 > hw {
			hw = op.arOffset + 1
		}
	}
	return int(hw)
}

// memGeneric executes one memory op through the Detector interface and
// the width-generic memory accessors. It returns Commit when execution
// continues, or the outcome (and conflict) the region must abort with.
func (ctx *ExecContext) memGeneric(op *decOp, det aliashw.Detector, vri []int64, vrf []float64, mem *guest.Memory) (Outcome, *aliashw.Conflict) {
	isStore := op.code >= xSt1A
	addr := uint64(vri[op.base] + op.imm)
	size := int(op.size)
	if conf, hit := det.OnMem(int(op.id), isStore, op.p, op.c, int(op.arOffset), op.arMask, addr, addr+uint64(size)); hit {
		c := conf
		return AliasException, &c
	}
	if isStore {
		bits := uint64(vri[op.src0])
		if op.float {
			bits = math.Float64bits(vrf[op.src0])
		}
		if ctx.ar.Store(addr, size, bits) != nil {
			return Fault, nil
		}
		return Commit, nil
	}
	bits, err := mem.Load(addr, size)
	if err != nil {
		return Fault, nil
	}
	if op.float {
		vrf[op.dst] = math.Float64frombits(bits)
	} else {
		vri[op.dst] = int64(bits)
	}
	return Commit, nil
}

// ExecContext is the reusable per-system execution state: the virtual
// register files and the pooled atomic region. A zero ExecContext is
// ready to use; it must not be shared between concurrently executing
// systems. Pooling preserves the atomic.Region single-use contract —
// each entry re-arms the same region, and between Begin and
// Commit/Rollback it behaves exactly like a fresh one.
type ExecContext struct {
	vri []int64
	vrf []float64
	ar  atomic.Region
}

// Execute runs a compiled region against the guest state, memory, and
// alias detector, inside an atomic region. On anything but Commit the
// architectural state is rolled back to the region entry and the detector
// reset. The steady-state commit path performs zero heap allocations.
func (ctx *ExecContext) Execute(cr *CompiledRegion, st *guest.State, mem *guest.Memory, det aliashw.Detector) ExecResult {
	reg := cr.Region
	nv := reg.NumVRegs
	if cap(ctx.vri) < nv {
		ctx.vri = make([]int64, nv)
		ctx.vrf = make([]float64, nv)
	}
	vri := ctx.vri[:nv]
	vrf := ctx.vrf[:nv]
	// Live-ins occupy fixed ranges (ir.Region: vregs [0, 2*NumRegs) are
	// the live-in guest registers, integer file first): vri[0:NumRegs]
	// holds the integer live-ins and vrf[NumRegs:2*NumRegs] the float
	// ones. Bulk-copy those and zero only the complement, matching the
	// fresh-slices semantics of the reference executor without clearing
	// words that are about to be overwritten.
	const nr = guest.NumRegs
	copy(vri[:nr], st.R[:])
	copy(vrf[nr:2*nr], st.F[:])
	clear(vri[nr:])
	clear(vrf[:nr])
	clear(vrf[2*nr:])

	dec, hw := cr.dec, cr.hw
	if dec == nil {
		// Hand-assembled CompiledRegion (tests): lower on the fly
		// without caching, so shared regions stay immutable here.
		dec = lower(cr.Seq, reg)
		hw = highWater(dec)
	}

	// Resolve the detector. slowA, slowLd and slowSt send annotated ops,
	// unannotated loads and unannotated stores down the generic memory
	// path, which calls the Detector interface. An unannotated op's
	// detector call is a no-op on the ordered queue, the bit-mask file and
	// no hardware, so those skip it; the ALAT checks every store, and a
	// detector the engine does not know is always called. An annotated op
	// calls the ordered queue directly and skips no hardware. slowLd and
	// slowSt imply slowA, so an annotated op that continues into its plain
	// form never reaches the detector twice.
	var oq *aliashw.OrderedQueue
	slowA, slowLd, slowSt := true, false, false
	switch d := det.(type) {
	case *aliashw.OrderedQueue:
		oq, slowA = d, false
	case aliashw.None:
		slowA = false
	case *aliashw.Bitmask:
		// Only annotated ops reach the file.
	case *aliashw.ALAT:
		slowSt = true
	default:
		slowLd, slowSt = true, true
	}
	data := mem.Bytes()

	ctx.ar.Begin(st, mem)
	abort := func(out Outcome, conf *aliashw.Conflict, n int) ExecResult {
		buffered := ctx.ar.StoreCount()
		ctx.ar.Rollback()
		det.Reset()
		return ExecResult{Outcome: out, Conflict: conf, OpsExecuted: n,
			ARHighWater: highWater(dec[:n+1]), StoresBuffered: buffered}
	}

	for n := range dec {
		op := &dec[n]
		code := op.code
	dispatch:
		switch code {
		case xop(guest.Nop):
		case xop(guest.Li):
			vri[op.dst] = op.imm
		case xop(guest.Mov), xCopyI:
			vri[op.dst] = vri[op.src0]
		case xop(guest.Add):
			vri[op.dst] = vri[op.src0] + vri[op.src1]
		case xop(guest.Sub):
			vri[op.dst] = vri[op.src0] - vri[op.src1]
		case xop(guest.Mul):
			vri[op.dst] = vri[op.src0] * vri[op.src1]
		case xop(guest.Div):
			if d := vri[op.src1]; d == 0 {
				vri[op.dst] = 0
			} else {
				vri[op.dst] = vri[op.src0] / d
			}
		case xop(guest.And):
			vri[op.dst] = vri[op.src0] & vri[op.src1]
		case xop(guest.Or):
			vri[op.dst] = vri[op.src0] | vri[op.src1]
		case xop(guest.Xor):
			vri[op.dst] = vri[op.src0] ^ vri[op.src1]
		case xop(guest.Shl):
			vri[op.dst] = vri[op.src0] << (uint64(vri[op.src1]) & 63)
		case xop(guest.Shr):
			vri[op.dst] = vri[op.src0] >> (uint64(vri[op.src1]) & 63)
		case xop(guest.Addi):
			vri[op.dst] = vri[op.src0] + op.imm
		case xop(guest.Muli):
			vri[op.dst] = vri[op.src0] * op.imm
		case xop(guest.Slt):
			if vri[op.src0] < vri[op.src1] {
				vri[op.dst] = 1
			} else {
				vri[op.dst] = 0
			}
		case xop(guest.FLi):
			vrf[op.dst] = math.Float64frombits(uint64(op.imm))
		case xop(guest.FMov), xCopyF:
			vrf[op.dst] = vrf[op.src0]
		case xop(guest.FAdd):
			vrf[op.dst] = vrf[op.src0] + vrf[op.src1]
		case xop(guest.FSub):
			vrf[op.dst] = vrf[op.src0] - vrf[op.src1]
		case xop(guest.FMul):
			vrf[op.dst] = vrf[op.src0] * vrf[op.src1]
		case xop(guest.FDiv):
			vrf[op.dst] = vrf[op.src0] / vrf[op.src1]
		case xop(guest.FNeg):
			vrf[op.dst] = -vrf[op.src0]
		case xop(guest.FAbs):
			vrf[op.dst] = math.Abs(vrf[op.src0])
		case xop(guest.FSqrt):
			vrf[op.dst] = math.Sqrt(vrf[op.src0])
		case xop(guest.CvtIF):
			vrf[op.dst] = float64(vri[op.src0])
		case xop(guest.CvtFI):
			vri[op.dst] = int64(vrf[op.src0])

		case xLd1A, xLd2A, xLd4A, xLd8A, xLdF8A, xSt1A, xSt2A, xSt4A, xSt8A, xStF8A:
			if oq != nil {
				addr := uint64(vri[op.base] + op.imm)
				if conf, hit := oq.OnMem(int(op.id), code >= xSt1A, op.p, op.c, int(op.arOffset), 0, addr, addr+uint64(op.size)); hit {
					c := conf
					return abort(AliasException, &c, n)
				}
			} else if slowA {
				goto generic
			}
			code++ // the plain form follows its annotated form
			goto dispatch
		case xLd1:
			if slowLd {
				goto generic
			}
			v, ok := guest.MemLoad1(data, uint64(vri[op.base]+op.imm))
			if !ok {
				return abort(Fault, nil, n)
			}
			vri[op.dst] = int64(v)
		case xLd2:
			if slowLd {
				goto generic
			}
			v, ok := guest.MemLoad2(data, uint64(vri[op.base]+op.imm))
			if !ok {
				return abort(Fault, nil, n)
			}
			vri[op.dst] = int64(v)
		case xLd4:
			if slowLd {
				goto generic
			}
			v, ok := guest.MemLoad4(data, uint64(vri[op.base]+op.imm))
			if !ok {
				return abort(Fault, nil, n)
			}
			vri[op.dst] = int64(v)
		case xLd8:
			if slowLd {
				goto generic
			}
			v, ok := guest.MemLoad8(data, uint64(vri[op.base]+op.imm))
			if !ok {
				return abort(Fault, nil, n)
			}
			vri[op.dst] = int64(v)
		case xLdF8:
			if slowLd {
				goto generic
			}
			v, ok := guest.MemLoad8(data, uint64(vri[op.base]+op.imm))
			if !ok {
				return abort(Fault, nil, n)
			}
			vrf[op.dst] = math.Float64frombits(v)
		case xSt1:
			if slowSt {
				goto generic
			}
			if ctx.ar.Store(uint64(vri[op.base]+op.imm), 1, uint64(vri[op.src0])) != nil {
				return abort(Fault, nil, n)
			}
		case xSt2:
			if slowSt {
				goto generic
			}
			if ctx.ar.Store(uint64(vri[op.base]+op.imm), 2, uint64(vri[op.src0])) != nil {
				return abort(Fault, nil, n)
			}
		case xSt4:
			if slowSt {
				goto generic
			}
			if ctx.ar.Store(uint64(vri[op.base]+op.imm), 4, uint64(vri[op.src0])) != nil {
				return abort(Fault, nil, n)
			}
		case xSt8:
			if slowSt {
				goto generic
			}
			if ctx.ar.Store(uint64(vri[op.base]+op.imm), 8, uint64(vri[op.src0])) != nil {
				return abort(Fault, nil, n)
			}
		case xStF8:
			if slowSt {
				goto generic
			}
			if ctx.ar.Store(uint64(vri[op.base]+op.imm), 8, math.Float64bits(vrf[op.src0])) != nil {
				return abort(Fault, nil, n)
			}
		case xLdAny, xStAny:
			goto generic

		case xExitEq:
			if vri[op.src0] == vri[op.src1] {
				return abort(GuardFail, nil, n)
			}
		case xExitNe:
			if vri[op.src0] != vri[op.src1] {
				return abort(GuardFail, nil, n)
			}
		case xExitLt:
			if vri[op.src0] < vri[op.src1] {
				return abort(GuardFail, nil, n)
			}
		case xExitGe:
			if vri[op.src0] >= vri[op.src1] {
				return abort(GuardFail, nil, n)
			}

		case xOutI:
			st.R[op.dst&(nr-1)] = vri[op.src0]
		case xOutF:
			st.F[op.dst&(nr-1)] = vrf[op.src0]

		case xRotate:
			if oq != nil {
				oq.Rotate(int(op.imm))
			} else {
				det.Rotate(int(op.imm))
			}
		case xAMov:
			if oq != nil {
				oq.AMov(int(op.src0), int(op.dst))
			} else {
				det.AMov(int(op.src0), int(op.dst))
			}
		}
		continue
	generic:
		if out, conf := ctx.memGeneric(op, det, vri, vrf, mem); out != Commit {
			return abort(out, conf, n)
		}
	}

	// Commit: the stream's tail already wrote the live-out registers
	// back to the guest state; make the stores permanent, clear the
	// detector.
	buffered := ctx.ar.StoreCount()
	ctx.ar.Commit()
	det.Reset()
	return ExecResult{Outcome: Commit, NextBlock: reg.FinalTarget, OpsExecuted: len(cr.Seq),
		ARHighWater: hw, StoresBuffered: buffered}
}

// Execute is the context-free convenience entry point: it runs the region
// through a fresh ExecContext. Long-running callers (the dynopt runtime)
// hold one ExecContext per system and call its Execute method instead, so
// the vreg files, checkpoint and undo log are recycled across entries.
func Execute(cr *CompiledRegion, st *guest.State, mem *guest.Memory, det aliashw.Detector) ExecResult {
	var ctx ExecContext
	return ctx.Execute(cr, st, mem, det)
}
