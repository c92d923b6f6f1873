package vliw

import (
	"fmt"
	"math"
	"unsafe"

	"smarq/internal/aliashw"
	"smarq/internal/atomic"
	"smarq/internal/guest"
	"smarq/internal/ir"
)

// Outcome classifies how a region execution ended.
type Outcome uint8

const (
	// Commit: every guard held, no alias exception; effects are permanent
	// and control continues at the region's final target.
	Commit Outcome = iota
	// GuardFail: a side-exit branch went off-trace; the region rolled
	// back and the runtime must resume in the interpreter.
	GuardFail
	// AliasException: the alias hardware detected a violated speculation;
	// the region rolled back and must be re-optimized conservatively.
	AliasException
	// Fault: a guest memory fault inside the region (possibly induced by
	// speculation); the region rolled back.
	Fault
)

var outcomeNames = map[Outcome]string{
	Commit: "commit", GuardFail: "guard-fail",
	AliasException: "alias-exception", Fault: "fault",
}

// String returns the outcome name.
func (o Outcome) String() string { return outcomeNames[o] }

// ExecResult reports one region execution.
type ExecResult struct {
	Outcome Outcome
	// NextBlock is where control continues after a commit (interp.HaltID
	// when the region ends the program).
	NextBlock int
	// Conflict identifies the aliasing op pair on AliasException.
	Conflict *aliashw.Conflict
	// OpsExecuted counts ops retired before the region ended (stats).
	OpsExecuted int
	// ARHighWater is the alias-register occupancy high-water mark of the
	// execution: the highest queue slot (+1) an executed P-bit memory op
	// claimed. Telemetry-only; filled by the decoded engine, left zero by
	// the reference executor.
	ARHighWater int
	// StoresBuffered is how many stores the atomic region had buffered
	// when the execution ended (committed or discarded). Telemetry-only;
	// filled by the decoded engine, left zero by the reference executor.
	StoresBuffered int
}

// CompiledRegion is an installed translation: the scheduled sequence, its
// source region, the precomputed static cycle cost of one complete
// execution, and the lowered flat op stream the executor consumes.
type CompiledRegion struct {
	Seq    []*ir.Op
	Region *ir.Region
	// Cycles is the in-order issue cycle count of Seq on this machine.
	Cycles int64
	// GuestInsts is the number of guest instructions a committed
	// execution retires.
	GuestInsts int
	// dec is Seq lowered into a flat array of value structs so the
	// execute loop walks contiguous memory instead of chasing *ir.Op
	// pointers (see exec.go); hw is its committed ARHighWater.
	dec []decOp
	hw  int
}

// Compile packages a scheduled sequence for execution, computing its
// static cycle cost and lowering the op stream.
func (c Config) Compile(seq []*ir.Op, reg *ir.Region, guestInsts int) *CompiledRegion {
	dec := lower(seq, reg)
	return &CompiledRegion{
		Seq:        seq,
		Region:     reg,
		Cycles:     c.CycleCount(seq, reg.NumVRegs),
		GuestInsts: guestInsts,
		dec:        dec,
		hw:         highWater(dec),
	}
}

// Bytes estimates the region's retained heap footprint: the struct
// itself, the schedule's pointer slice, the pre-decoded op stream, and the
// frozen region slabs (ir.Freeze packs ops, operand lists, flags and mem
// infos into exact-capacity arrays, so slab lengths are exactly the live
// element counts). Seq points into the same frozen op slab as Region.Ops,
// so op structs are counted once via Region.Ops. The result depends only
// on the region's structure — never on addresses or host state — so it is
// deterministic and safe to fold into cache-eviction decisions.
func (cr *CompiledRegion) Bytes() int64 {
	const ptrSize = int64(unsafe.Sizeof((*ir.Op)(nil)))
	n := int64(unsafe.Sizeof(*cr))
	n += int64(len(cr.Seq)) * ptrSize
	n += int64(len(cr.dec)) * int64(unsafe.Sizeof(decOp{}))
	reg := cr.Region
	if reg == nil {
		return n
	}
	n += int64(unsafe.Sizeof(*reg))
	n += int64(len(reg.Ops)) * ptrSize
	for _, o := range reg.Ops {
		n += int64(unsafe.Sizeof(*o))
		n += int64(len(o.Srcs)) * int64(unsafe.Sizeof(ir.VReg(0)))
		n += int64(len(o.SrcFloat)) // one byte per bool flag
		if o.Mem != nil {
			n += int64(unsafe.Sizeof(*o.Mem))
		}
	}
	return n
}

// CycleCount models in-order VLIW issue of the sequence: ops issue in
// order, each waiting for its operands (fixed latencies) and for a free
// slot of its class (IssueWidth total, MemPorts for memory ops). Because
// latencies are fixed, the count is exact and deterministic. It equals
// the last op's issue cycle (per IssueCycles) plus one.
func (c Config) CycleCount(seq []*ir.Op, numVRegs int) int64 {
	cycles := c.IssueCycles(seq, numVRegs)
	if len(cycles) == 0 {
		return 1
	}
	return cycles[len(cycles)-1] + 1
}

// vregFile holds the region's virtual register values during execution.
type vregFile struct {
	i []int64
	f []float64
}

// executeRef is the original *ir.Op-walking executor, kept verbatim as
// the reference semantics for the lowered engine in exec.go: the
// differential tests drive both on the same programs and require
// bit-identical outcomes. It allocates per entry (vreg files, checkpoint,
// undo log); the production path is ExecContext.Execute.
func executeRef(cr *CompiledRegion, st *guest.State, mem *guest.Memory, det aliashw.Detector) ExecResult {
	reg := cr.Region
	vr := vregFile{i: make([]int64, reg.NumVRegs), f: make([]float64, reg.NumVRegs)}
	for r := 0; r < guest.NumRegs; r++ {
		vr.i[ir.LiveInInt(guest.Reg(r))] = st.R[r]
		vr.f[ir.LiveInFloat(guest.Reg(r))] = st.F[r]
	}

	ar := atomic.Begin(st, mem)
	abort := func(out Outcome, conf *aliashw.Conflict, n int) ExecResult {
		ar.Rollback()
		det.Reset()
		return ExecResult{Outcome: out, Conflict: conf, OpsExecuted: n}
	}

	for n, op := range cr.Seq {
		switch op.Kind {
		case ir.Arith:
			execArith(op, &vr)

		case ir.Copy:
			if op.DstFloat {
				vr.f[op.Dst] = vr.f[op.Srcs[0]]
			} else {
				vr.i[op.Dst] = vr.i[op.Srcs[0]]
			}

		case ir.Load:
			addr := uint64(vr.i[op.Mem.Base] + op.Mem.Off)
			size := op.Mem.Size
			if conf, hit := det.OnMem(op.ID, false, op.P, op.C, op.AROffset, op.ARMask, addr, addr+uint64(size)); hit {
				c := conf
				return abort(AliasException, &c, n)
			}
			bits, err := mem.Load(addr, size)
			if err != nil {
				return abort(Fault, nil, n)
			}
			if op.DstFloat {
				vr.f[op.Dst] = math.Float64frombits(bits)
			} else {
				vr.i[op.Dst] = int64(bits)
			}

		case ir.Store:
			addr := uint64(vr.i[op.Mem.Base] + op.Mem.Off)
			size := op.Mem.Size
			if conf, hit := det.OnMem(op.ID, true, op.P, op.C, op.AROffset, op.ARMask, addr, addr+uint64(size)); hit {
				c := conf
				return abort(AliasException, &c, n)
			}
			var bits uint64
			if op.SrcFloat[0] {
				bits = math.Float64bits(vr.f[op.Srcs[0]])
			} else {
				bits = uint64(vr.i[op.Srcs[0]])
			}
			if err := ar.Store(addr, size, bits); err != nil {
				return abort(Fault, nil, n)
			}

		case ir.Guard:
			if evalGuard(op, &vr) != op.OnTraceTaken {
				return abort(GuardFail, nil, n)
			}

		case ir.Rotate:
			det.Rotate(op.Amount)

		case ir.AMov:
			det.AMov(op.SrcOff, op.DstOff)

		default:
			panic(fmt.Sprintf("vliw: cannot execute op kind %v", op.Kind))
		}
	}

	// Commit: write the live-out virtual registers back to the guest
	// state, make the stores permanent, clear the detector.
	for r := 0; r < guest.NumRegs; r++ {
		st.R[r] = vr.i[reg.IntOut[r]]
		st.F[r] = vr.f[reg.FloatOut[r]]
	}
	ar.Commit()
	det.Reset()
	return ExecResult{Outcome: Commit, NextBlock: reg.FinalTarget, OpsExecuted: len(cr.Seq)}
}

// execArith evaluates a register-to-register op on the vreg file,
// mirroring guest.Exec semantics.
func execArith(op *ir.Op, vr *vregFile) {
	i := vr.i
	f := vr.f
	switch op.GOp {
	case guest.Nop:
	case guest.Li:
		i[op.Dst] = op.Imm
	case guest.Mov:
		i[op.Dst] = i[op.Srcs[0]]
	case guest.Add:
		i[op.Dst] = i[op.Srcs[0]] + i[op.Srcs[1]]
	case guest.Sub:
		i[op.Dst] = i[op.Srcs[0]] - i[op.Srcs[1]]
	case guest.Mul:
		i[op.Dst] = i[op.Srcs[0]] * i[op.Srcs[1]]
	case guest.Div:
		if i[op.Srcs[1]] == 0 {
			i[op.Dst] = 0
		} else {
			i[op.Dst] = i[op.Srcs[0]] / i[op.Srcs[1]]
		}
	case guest.And:
		i[op.Dst] = i[op.Srcs[0]] & i[op.Srcs[1]]
	case guest.Or:
		i[op.Dst] = i[op.Srcs[0]] | i[op.Srcs[1]]
	case guest.Xor:
		i[op.Dst] = i[op.Srcs[0]] ^ i[op.Srcs[1]]
	case guest.Shl:
		i[op.Dst] = i[op.Srcs[0]] << (uint64(i[op.Srcs[1]]) & 63)
	case guest.Shr:
		i[op.Dst] = i[op.Srcs[0]] >> (uint64(i[op.Srcs[1]]) & 63)
	case guest.Addi:
		i[op.Dst] = i[op.Srcs[0]] + op.Imm
	case guest.Muli:
		i[op.Dst] = i[op.Srcs[0]] * op.Imm
	case guest.Slt:
		if i[op.Srcs[0]] < i[op.Srcs[1]] {
			i[op.Dst] = 1
		} else {
			i[op.Dst] = 0
		}
	case guest.FLi:
		f[op.Dst] = op.FImm
	case guest.FMov:
		f[op.Dst] = f[op.Srcs[0]]
	case guest.FAdd:
		f[op.Dst] = f[op.Srcs[0]] + f[op.Srcs[1]]
	case guest.FSub:
		f[op.Dst] = f[op.Srcs[0]] - f[op.Srcs[1]]
	case guest.FMul:
		f[op.Dst] = f[op.Srcs[0]] * f[op.Srcs[1]]
	case guest.FDiv:
		f[op.Dst] = f[op.Srcs[0]] / f[op.Srcs[1]]
	case guest.FNeg:
		f[op.Dst] = -f[op.Srcs[0]]
	case guest.FAbs:
		f[op.Dst] = math.Abs(f[op.Srcs[0]])
	case guest.FSqrt:
		f[op.Dst] = math.Sqrt(f[op.Srcs[0]])
	case guest.CvtIF:
		f[op.Dst] = float64(i[op.Srcs[0]])
	case guest.CvtFI:
		i[op.Dst] = int64(f[op.Srcs[0]])
	default:
		panic(fmt.Sprintf("vliw: cannot execute arith op %s", op.GOp))
	}
}

// evalGuard evaluates a guard's branch condition: true means "taken".
func evalGuard(op *ir.Op, vr *vregFile) bool {
	a, b := vr.i[op.Srcs[0]], vr.i[op.Srcs[1]]
	switch op.GOp {
	case guest.Beq:
		return a == b
	case guest.Bne:
		return a != b
	case guest.Blt:
		return a < b
	case guest.Bge:
		return a >= b
	default:
		panic(fmt.Sprintf("vliw: guard with opcode %s", op.GOp))
	}
}
