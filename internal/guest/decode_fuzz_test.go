package guest_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"smarq/internal/guest"
	"smarq/internal/workload"
)

// decodeMeasured decodes data and reports the heap bytes the decode
// allocated.
func decodeMeasured(data []byte) (*guest.Program, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := guest.DecodeProgram(data)
	runtime.ReadMemStats(&after)
	return p, after.TotalAlloc - before.TotalAlloc, err
}

// decodeAllocBound is the most a decode of n input bytes may allocate. An
// instruction costs 32 bytes of Inst per 16 encoded bytes and an empty
// block about 40 bytes of Block and pointer per 4 encoded bytes; the
// constant covers the Program header and error formatting.
func decodeAllocBound(n int) uint64 { return 16*uint64(n) + 64<<10 }

// header encodes an image prefix: magic, version, entry 0 and nblocks.
func header(nblocks uint32) []byte {
	b := append([]byte("SMRQ"), 1)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return binary.LittleEndian.AppendUint32(b, nblocks)
}

// TestDecodeRejectsOversizedCounts: a count the remaining bytes cannot
// hold is rejected before anything is sized from it. A 17-byte image
// declaring one block of 1<<20 instructions used to allocate 33.5 MB
// before failing as truncated.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	for name, data := range map[string][]byte{
		"instructions": binary.LittleEndian.AppendUint32(header(1), 1<<20),
		"blocks":       header(1 << 20),
		"max blocks":   header(^uint32(0)),
		"max insts":    binary.LittleEndian.AppendUint32(header(1), ^uint32(0)),
	} {
		p, allocated, err := decodeMeasured(data)
		if err == nil || p != nil {
			t.Errorf("%s: decoded %d-byte image with an impossible count", name, len(data))
		}
		if bound := decodeAllocBound(len(data)); allocated > bound {
			t.Errorf("%s: decoding %d bytes allocated %d bytes, bound %d", name, len(data), allocated, bound)
		}
	}
}

// FuzzDecodeProgram: decoding arbitrary bytes never panics, allocates at
// most decodeAllocBound of the input length, and whatever decodes
// re-encodes to exactly the input bytes. The corpus seeds are the
// encoded workload suite.
func FuzzDecodeProgram(f *testing.F) {
	for _, bm := range workload.Suite() {
		f.Add(guest.EncodeProgram(bm.Build()))
	}
	f.Add(header(0))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, allocated, err := decodeMeasured(data)
		if bound := decodeAllocBound(len(data)); allocated > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(data), allocated, bound)
		}
		if err != nil {
			return
		}
		if got := guest.EncodeProgram(p); !bytes.Equal(got, data) {
			t.Fatalf("Encode(Decode(x)) != x:\n x   %x\n got %x", data, got)
		}
	})
}
