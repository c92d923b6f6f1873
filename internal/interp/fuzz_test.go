package interp

import (
	"fmt"
	"math/rand"
	"testing"

	"smarq/internal/guest"
	"smarq/internal/workload"
)

const fuzzMemSize = 1 << 14

// randomInterpProgram generates a structured random guest program aimed
// squarely at the decoded engine: counted loops whose bodies mix every
// access width, fusion-prone addi+load pairs (including the
// destination-aliasing form), slt feeding fused and non-fused consumers,
// quiet div-by-zero, masked shifts, and float chains that round-trip raw
// memory bits. A rare variant poisons a base register with an
// out-of-range address so the failBlock cold path gets fuzzed too. All
// loops are counted, so every program either halts or faults — never
// spins.
func randomInterpProgram(rng *rand.Rand) *guest.Program {
	b := guest.NewBuilder()

	// Registers: r1..r4 array bases, r5 loop counter, r7 trip limit,
	// r8/r9 branch/address temps, r10..r15 scratch, r16 pointer table.
	b.NewBlock()
	bases := []int64{1 << 10, 3 << 10, 5 << 10, 7 << 10}
	for i, base := range bases {
		b.Li(guest.Reg(1+i), base+int64(rng.Intn(4))*8)
	}
	b.Li(16, 9<<10)
	b.Li(9, bases[rng.Intn(4)])
	b.St8(16, 0, 9)
	b.Li(5, 0)
	b.Li(7, int64(40+rng.Intn(80))) // trip count
	for r := 10; r <= 15; r++ {
		b.Li(guest.Reg(r), int64(rng.Intn(64))*8)
	}
	b.FLi(1, 1.5)
	b.FLi(2, 0.25)
	// Rare fault seed: an out-of-range base makes the first access
	// through it fault — both engines must report the identical error at
	// the identical retirement count.
	if rng.Intn(8) == 0 {
		b.Li(guest.Reg(1+rng.Intn(4)), fuzzMemSize+int64(rng.Intn(1<<20)))
	}

	loop := b.NewBlock()
	nOps := 4 + rng.Intn(14)
	for i := 0; i < nOps; i++ {
		base := guest.Reg(1 + rng.Intn(4))
		off := int64(rng.Intn(32)) * 8
		scratch := guest.Reg(10 + rng.Intn(6))
		switch rng.Intn(14) {
		case 0:
			b.St8(base, off, scratch)
		case 1:
			b.Ld8(scratch, base, off)
		case 2: // fusion-prone addi+load at a random width
			b.Addi(9, base, off)
			switch rng.Intn(5) {
			case 0:
				b.Ld1(scratch, 9, 0)
			case 1:
				b.Ld2(scratch, 9, 0)
			case 2:
				b.Ld4(scratch, 9, 0)
			case 3:
				b.Ld8(scratch, 9, 0)
			default:
				b.FLd8(3, 9, 0)
			}
		case 3: // destination-aliasing fused pair
			b.Addi(scratch, base, off)
			b.Ld8(scratch, scratch, 0)
		case 4: // store through the pointer table (opaque root)
			b.Ld8(9, 16, 0)
			b.St8(9, off%128, scratch)
		case 5: // quiet div-by-zero and masked shifts
			b.Div(11, scratch, 10)
			b.Shl(12, 11, scratch)
			b.Shr(12, 12, 10)
		case 6: // slt with a non-branch consumer: must NOT fuse
			b.Slt(11, scratch, 10)
			b.Add(12, 11, 11)
		case 7: // float chain plus both conversions
			b.FMul(3, 1, 2)
			b.FAdd(1, 3, 2)
			b.CvtFI(13, 2)
			b.CvtIF(4, 13)
		case 8: // narrow store shadowed by a narrower load
			b.St2(base, off, scratch)
			b.Ld1(scratch, base, off)
		case 9: // integer arithmetic mix
			b.Mul(14, scratch, 10)
			b.Sub(15, 14, scratch)
			b.Xor(14, 15, 14)
			b.Muli(15, 15, int64(rng.Intn(7))-3)
		case 10:
			b.Nop()
			b.Mov(13, scratch)
			b.Or(13, 13, 10)
			b.And(13, 13, 10)
		case 12: // scaled-index triple (the idx8 pattern)
			b.Muli(9, 5, 8)
			b.Add(9, base, 9)
			if rng.Intn(2) == 0 {
				b.Ld8(scratch, 9, 0)
			} else {
				b.St8(9, 0, scratch)
			}
		case 13: // scaled-index triple, aliasing operand order, float access
			b.Muli(9, 5, 8)
			b.Add(9, 9, base)
			if rng.Intn(2) == 0 {
				b.FLd8(3, 9, 0)
			} else {
				b.FSt8(9, 0, 1)
			}
		default: // raw memory bits as floats: NaN/Inf propagation
			b.FSt8(base, off, 1)
			b.FLd8(2, base, off)
			b.FAbs(2, 2)
			b.FSqrt(2, 2)
			b.FNeg(3, 2)
			b.FDiv(3, 3, 2)
		}
	}

	// Terminator variants: plain blt, fused slt+bne, fused slt+beq.
	tail := b.Reserve(2) // tail: re-loop or exit ramp; tail+1: halt
	b.Addi(5, 5, 1)
	switch rng.Intn(3) {
	case 0:
		b.Blt(5, 7, loop)
		b.At(tail)
		b.Jmp(tail + 1)
	case 1:
		b.Slt(8, 5, 7)
		b.Bne(8, 0, loop)
		b.At(tail)
		b.Jmp(tail + 1)
	default:
		b.Slt(8, 5, 7)
		b.Beq(8, 0, tail+1) // exits when the count runs out
		b.At(tail)
		b.Jmp(loop)
	}
	b.At(tail + 1)
	b.Halt()
	return b.MustProgram()
}

// randomInterpSeeds are the generator seeds of the regression test below
// and, encoded, of the fuzz corpus.
var randomInterpSeeds = []int64{1, 42, 1000, 31337}

// TestInterpRandomSeeds runs the generator's fixed seeds through both
// engines, so the random-program shapes stay covered by plain `go test`.
func TestInterpRandomSeeds(t *testing.T) {
	for _, seed := range randomInterpSeeds {
		prog := randomInterpProgram(rand.New(rand.NewSource(seed)))
		diffEngines(t, fmt.Sprintf("seed %d", seed), prog, fuzzMemSize, 3_000_000)
	}
}

// FuzzInterpDecoded is the engine-level differential fuzz over encoded
// guest programs: Run on the decoded engine versus the guest.Exec
// reference, compared by diffEngines. The corpus is the encoded random
// programs plus the encoded workload suite, so the mutator works on real
// program structure; input that does not decode is skipped, and the
// instruction budget bounds programs that loop forever. Any decode,
// fusion, or retirement bug anywhere in the fast path shows up as a
// divergence here.
func FuzzInterpDecoded(f *testing.F) {
	memSize := fuzzMemSize
	for _, seed := range randomInterpSeeds {
		f.Add(guest.EncodeProgram(randomInterpProgram(rand.New(rand.NewSource(seed)))))
	}
	for _, bm := range workload.Suite() {
		f.Add(guest.EncodeProgram(bm.Build()))
		memSize = max(memSize, bm.MemSize)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := guest.DecodeProgram(data)
		if err != nil {
			return
		}
		diffEngines(t, "fuzz", prog, memSize, 3_000_000)
	})
}
