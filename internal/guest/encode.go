package guest

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of guest programs. The dynamic optimization system of the
// paper consumes binaries; this fixed-width encoding (16 bytes per
// instruction) is the guest ISA's "machine code", letting programs be
// stored, shipped, and decoded like the x86 images the paper translates.
//
// Layout (little-endian):
//
//	file   := magic("SMRQ") version(u8) entry(u32) nblocks(u32) block*
//	block  := ninsts(u32) inst*
//	inst   := op(u8) rd(u8) rs1(u8) rs2(u8) target(i32) imm(i64)
//
// FLi reuses the imm field for the float64 bit pattern.

const (
	encMagic   = "SMRQ"
	encVersion = 1
	instBytes  = 16
)

// EncodeProgram serializes a program. The program should be valid; Encode
// does not re-validate.
func EncodeProgram(p *Program) []byte {
	out := make([]byte, 0, 16+p.NumInsts()*instBytes)
	out = append(out, encMagic...)
	out = append(out, encVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(p.Entry))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p.Blocks)))
	for _, b := range p.Blocks {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Insts)))
		for _, in := range b.Insts {
			out = append(out, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2))
			out = binary.LittleEndian.AppendUint32(out, uint32(int32(in.Target)))
			imm := uint64(in.Imm)
			if in.Op == FLi {
				imm = math.Float64bits(in.FImm)
			}
			out = binary.LittleEndian.AppendUint64(out, imm)
		}
	}
	return out
}

// DecodeProgram parses a binary image back into a program and validates
// it. Every count in the image is checked against the bytes that remain
// before anything is sized from it, so a hostile image cannot make the
// decoder allocate more than a small multiple of its own length.
func DecodeProgram(data []byte) (*Program, error) {
	r := &reader{data: data}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != encMagic {
		return nil, fmt.Errorf("guest: bad magic %q", magic)
	}
	ver, err := r.u8()
	if err != nil {
		return nil, err
	}
	if ver != encVersion {
		return nil, fmt.Errorf("guest: unsupported encoding version %d", ver)
	}
	entry, err := r.u32()
	if err != nil {
		return nil, err
	}
	nblocks, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(nblocks)*4 > uint64(r.left()) {
		return nil, fmt.Errorf("guest: block count %d exceeds the %d bytes left", nblocks, r.left())
	}
	p := &Program{Entry: int(entry), Blocks: make([]*Block, 0, nblocks)}
	for i := 0; i < int(nblocks); i++ {
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if uint64(n)*instBytes > uint64(r.left()) {
			return nil, fmt.Errorf("guest: block %d instruction count %d exceeds the %d bytes left", i, n, r.left())
		}
		blk := &Block{ID: i, Insts: make([]Inst, 0, n)}
		for j := 0; j < int(n); j++ {
			raw, err := r.bytes(instBytes)
			if err != nil {
				return nil, err
			}
			in := Inst{
				Op:     Opcode(raw[0]),
				Rd:     Reg(raw[1]),
				Rs1:    Reg(raw[2]),
				Rs2:    Reg(raw[3]),
				Target: int(int32(binary.LittleEndian.Uint32(raw[4:]))),
			}
			imm := binary.LittleEndian.Uint64(raw[8:])
			if in.Op == FLi {
				in.FImm = math.Float64frombits(imm)
			} else {
				in.Imm = int64(imm)
			}
			blk.Insts = append(blk.Insts, in)
		}
		p.Blocks = append(p.Blocks, blk)
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("guest: %d trailing bytes", len(data)-r.pos)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("guest: decoded program invalid: %w", err)
	}
	return p, nil
}

type reader struct {
	data []byte
	pos  int
}

// left returns the number of unread bytes.
func (r *reader) left() int { return len(r.data) - r.pos }

func (r *reader) bytes(n int) ([]byte, error) {
	if r.pos+n > len(r.data) {
		return nil, fmt.Errorf("guest: truncated image at byte %d", r.pos)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) u8() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}
