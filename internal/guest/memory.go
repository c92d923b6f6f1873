package guest

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Memory is the flat little-endian byte-addressable guest memory.
//
// Out-of-range accesses return a MemFault rather than panicking: in the
// dynamic optimization system a guest fault inside an atomic region must be
// catchable so the region can roll back (Figure 1 of the paper routes all
// exceptions through the runtime module).
type Memory struct {
	data []byte
}

// MemFault describes an out-of-bounds guest memory access.
type MemFault struct {
	Addr uint64
	Size int
	Len  uint64
}

func (f *MemFault) Error() string {
	return fmt.Sprintf("guest: memory fault: %d-byte access at 0x%x, memory size 0x%x", f.Size, f.Addr, f.Len)
}

// NewMemory allocates a zeroed guest memory of the given size in bytes.
func NewMemory(size int) *Memory {
	return &Memory{data: make([]byte, size)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

func (m *Memory) check(addr uint64, size int) error {
	if addr+uint64(size) > uint64(len(m.data)) || addr+uint64(size) < addr {
		return &MemFault{Addr: addr, Size: size, Len: uint64(len(m.data))}
	}
	return nil
}

// Load reads size bytes (1, 2, 4 or 8) at addr, zero-extended to 64 bits.
func (m *Memory) Load(addr uint64, size int) (uint64, error) {
	if err := m.check(addr, size); err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint64(m.data[addr]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.data[addr:])), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.data[addr:])), nil
	case 8:
		return binary.LittleEndian.Uint64(m.data[addr:]), nil
	}
	return 0, fmt.Errorf("guest: invalid load size %d", size)
}

// Store writes the low size bytes (1, 2, 4 or 8) of val at addr.
func (m *Memory) Store(addr uint64, size int, val uint64) error {
	if err := m.check(addr, size); err != nil {
		return err
	}
	switch size {
	case 1:
		m.data[addr] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(m.data[addr:], uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(m.data[addr:], uint32(val))
	case 8:
		binary.LittleEndian.PutUint64(m.data[addr:], val)
	default:
		return fmt.Errorf("guest: invalid store size %d", size)
	}
	return nil
}

// The MemLoad/MemStore functions below are fixed-size fast accessors for
// the pre-decoded interpreter: the bounds-check-plus-little-endian cores of
// Load/Store with the size switch resolved at decode time, over a raw
// backing slice (see Bytes). Interpreter-style hot loops hoist the slice
// into a local once and use these, so every access keeps the slice header
// in registers instead of reloading it through the *Memory indirection.
// Failure returns ok=false with no side effects; the caller rebuilds the
// exact MemFault on its cold path.

// MemLoad1 reads one byte at addr, zero-extended.
func MemLoad1(data []byte, addr uint64) (uint64, bool) {
	if addr >= uint64(len(data)) {
		return 0, false
	}
	return uint64(data[addr]), true
}

// MemLoad2 reads a little-endian uint16 at addr, zero-extended.
func MemLoad2(data []byte, addr uint64) (uint64, bool) {
	if addr+2 > uint64(len(data)) || addr+2 < addr {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint16(data[addr:])), true
}

// MemLoad4 reads a little-endian uint32 at addr, zero-extended.
func MemLoad4(data []byte, addr uint64) (uint64, bool) {
	if addr+4 > uint64(len(data)) || addr+4 < addr {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint32(data[addr:])), true
}

// MemLoad8 reads a little-endian uint64 at addr.
func MemLoad8(data []byte, addr uint64) (uint64, bool) {
	if addr+8 > uint64(len(data)) || addr+8 < addr {
		return 0, false
	}
	return binary.LittleEndian.Uint64(data[addr:]), true
}

// MemStore1 writes the low byte of val at addr.
func MemStore1(data []byte, addr uint64, val uint64) bool {
	if addr >= uint64(len(data)) {
		return false
	}
	data[addr] = byte(val)
	return true
}

// MemStore2 writes the low 2 bytes of val at addr, little-endian.
func MemStore2(data []byte, addr uint64, val uint64) bool {
	if addr+2 > uint64(len(data)) || addr+2 < addr {
		return false
	}
	binary.LittleEndian.PutUint16(data[addr:], uint16(val))
	return true
}

// MemStore4 writes the low 4 bytes of val at addr, little-endian.
func MemStore4(data []byte, addr uint64, val uint64) bool {
	if addr+4 > uint64(len(data)) || addr+4 < addr {
		return false
	}
	binary.LittleEndian.PutUint32(data[addr:], uint32(val))
	return true
}

// MemStore8 writes val at addr, little-endian.
func MemStore8(data []byte, addr uint64, val uint64) bool {
	if addr+8 > uint64(len(data)) || addr+8 < addr {
		return false
	}
	binary.LittleEndian.PutUint64(data[addr:], val)
	return true
}

// Bytes returns the raw backing store. It stays valid and aliased to the
// Memory for the Memory's lifetime; callers may read and write contents
// through the MemLoad/MemStore accessors but must not grow or replace it.
func (m *Memory) Bytes() []byte { return m.data }

// Zero resets the memory contents to the all-zeroes initial state without
// reallocating, for benchmark and test reuse.
func (m *Memory) Zero() {
	clear(m.data)
}

// Digest returns a 64-bit FNV-1a hash of the full memory contents — a
// cheap fingerprint the rollback invariant checker compares across an
// atomic region's checkpoint/restore cycle.
func (m *Memory) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range m.data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// LoadF64 reads a float64 at addr.
func (m *Memory) LoadF64(addr uint64) (float64, error) {
	bits, err := m.Load(addr, 8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// StoreF64 writes a float64 at addr.
func (m *Memory) StoreF64(addr uint64, v float64) error {
	return m.Store(addr, 8, math.Float64bits(v))
}

// State is the guest architectural register state: 32 integer and 32
// floating-point registers. The zero value is a reset machine.
type State struct {
	R [NumRegs]int64
	F [NumRegs]float64
}

// Clone returns a heap copy of the state. The atomic-region checkpoint
// now holds a State by value to stay allocation-free; Clone remains for
// callers that want an owned snapshot (reference runs, tests).
func (s *State) Clone() *State {
	c := *s
	return &c
}
