package aliashw

import (
	"math/rand"
	"sort"
	"testing"
)

// specQueue is a literal transcription of [ORDERED-ALIAS-DETECTION-RULE]
// and §3.2/§3.3: it keeps every live register in a map keyed by absolute
// order and applies the rule text directly, with none of OrderedQueue's
// circular-buffer machinery. The model-based test below drives both with
// random operation streams and requires identical observable behaviour.
type specQueue struct {
	n       int
	base    int
	entries map[int]specEntry // absolute order -> entry
	// checked counts the register visits the rule makes: each live
	// register a check compares, in ascending order, up to the first
	// conflict — the Checked() energy proxy.
	checked uint64
}

type specEntry struct {
	lo, hi  uint64
	byStore bool
	origin  int
}

func newSpecQueue(n int) *specQueue {
	return &specQueue{n: n, entries: map[int]specEntry{}}
}

func (s *specQueue) OnMem(opID int, isStore, p, c bool, offset int, _ uint16, lo, hi uint64) *Conflict {
	if c {
		// "X checks Y iff ... the alias register allocated to X is not
		// later than the alias register allocated to Y": visit every live
		// register whose order >= base+offset, earliest first, and stop
		// at the first conflict (a deterministic witness).
		orders := make([]int, 0, len(s.entries))
		for order := range s.entries {
			if order >= s.base+offset {
				orders = append(orders, order)
			}
		}
		sort.Ints(orders)
		for _, order := range orders {
			e := s.entries[order]
			if !isStore && !e.byStore {
				continue // loads do not check load-set registers
			}
			s.checked++
			if lo < e.hi && e.lo < hi {
				return &Conflict{Checker: opID, Origin: e.origin}
			}
		}
	}
	if p {
		s.entries[s.base+offset] = specEntry{lo: lo, hi: hi, byStore: isStore, origin: opID}
	}
	return nil
}

func (s *specQueue) Rotate(n int) {
	for i := 0; i < n; i++ {
		delete(s.entries, s.base+i)
	}
	s.base += n
}

func (s *specQueue) AMov(src, dst int) {
	e, ok := s.entries[s.base+src]
	delete(s.entries, s.base+src)
	if ok && src != dst {
		s.entries[s.base+dst] = e
	}
}

func (s *specQueue) Reset() {
	s.base = 0
	s.entries = map[int]specEntry{}
}

// maxLiveOffset returns the highest live offset, for keeping the random
// stream within the physical window.
func (s *specQueue) maxLiveOffset() int {
	max := -1
	for order := range s.entries {
		if off := order - s.base; off > max {
			max = off
		}
	}
	return max
}

// specOp is one operation of a model-test stream.
type specOp struct {
	kind          byte // 0 rotate, 1 AMov, 2 reset, anything else a memory op
	a, b          int  // rotate amount; AMov src/dst; memory op offset (a)
	isStore, p, c bool
	lo, hi        uint64
}

// stepSpec applies op to the queue and the literal-rule model and fails
// on any observable difference: conflict presence, its origin, or the
// Checked() count. The stream keeps to the software contract the
// allocator guarantees (offsets < N; a rotation never strands the window
// past the highest live register), which is exactly the regime the
// hardware is specified for; stepSpec clamps rotations to it.
func stepSpec(t *testing.T, q *OrderedQueue, s *specQueue, step int, op specOp) {
	t.Helper()
	switch op.kind {
	case 0:
		amt := op.a
		if live := s.maxLiveOffset(); live >= 0 && amt > live+1 {
			amt = live + 1
		}
		q.Rotate(amt)
		s.Rotate(amt)
	case 1:
		q.AMov(op.a, op.b)
		s.AMov(op.a, op.b)
	case 2:
		q.Reset()
		s.Reset()
	default:
		got, hit := q.OnMem(step, op.isStore, op.p, op.c, op.a, 0, op.lo, op.hi)
		want := s.OnMem(step, op.isStore, op.p, op.c, op.a, 0, op.lo, op.hi)
		if hit != (want != nil) {
			t.Fatalf("n=%d step %d: conflict mismatch: impl=%v spec=%v", s.n, step, hit, want)
		}
		if hit && got.Origin != want.Origin {
			// The spec reports the earliest-order conflict; the
			// implementation scans from the offset upward — they must
			// agree on the witness.
			t.Fatalf("n=%d step %d: origin mismatch: impl=%d spec=%d", s.n, step, got.Origin, want.Origin)
		}
	}
	if q.Checked() != s.checked {
		t.Fatalf("n=%d step %d: Checked() = %d, spec counts %d", s.n, step, q.Checked(), s.checked)
	}
	if q.Base() != s.base {
		t.Fatalf("n=%d step %d: base = %d, spec %d", s.n, step, q.Base(), s.base)
	}
}

// specSizes covers tiny files, a size that is not a power of two, the
// one-word bitset limit, and multiword bitsets.
var specSizes = []int{2, 4, 6, 8, 64, 65, 128}

// TestOrderedQueueMatchesSpec drives OrderedQueue and the literal-rule
// model with identical random streams of set/check/rotate/AMov/reset
// operations and demands identical conflict reports and Checked() counts
// at every step. Rotations reach up to N/4 registers and resets are rare,
// so BASE wraps the physical file many times at every size.
func TestOrderedQueueMatchesSpec(t *testing.T) {
	for _, n := range specSizes {
		rng := rand.New(rand.NewSource(int64(77 + n)))
		q := NewOrderedQueue(n)
		s := newSpecQueue(n)
		for step := 0; step < 20000; step++ {
			var op specOp
			switch r := rng.Intn(40); {
			case r < 4:
				op = specOp{kind: 0, a: rng.Intn(3 + n/4)}
			case r < 8:
				op = specOp{kind: 1, a: rng.Intn(n), b: rng.Intn(n)}
			case r < 9:
				op = specOp{kind: 2}
			default:
				lo := uint64(rng.Intn(64) * 4)
				op = specOp{kind: 3, a: rng.Intn(n),
					isStore: rng.Intn(2) == 0, p: rng.Intn(2) == 0, c: rng.Intn(2) == 0,
					lo: lo, hi: lo + uint64(4+rng.Intn(8))}
			}
			stepSpec(t, q, s, step, op)
		}
	}
}

// FuzzOrderedQueueSpec decodes a byte stream into set/check/rotate/AMov/
// reset operations on a queue whose size the first byte picks, and
// compares conflicts and Checked() with the literal-rule model at every
// step.
func FuzzOrderedQueueSpec(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 3, 0, 2, 3, 0, 3, 0})
	f.Add([]byte{2, 3, 5, 1, 7, 3, 5, 2, 7, 0, 3, 3, 3, 5, 8})
	f.Add([]byte{5, 3, 100, 7, 9, 0, 40, 3, 127, 6, 9, 1, 100, 3, 3, 64, 5, 9, 2, 3, 1, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := specSizes[int(data[0])%len(specSizes)]
		q := NewOrderedQueue(n)
		s := newSpecQueue(n)
		data = data[1:]
		for step := 0; len(data) >= 3 && step < 4096; step++ {
			op := specOp{kind: data[0] % 4, a: int(data[1]) % n, b: int(data[2]) % n}
			if op.kind == 0 {
				op.a = int(data[1]) % (3 + n/4)
			}
			if op.kind == 3 {
				flags := data[0] >> 2
				op.isStore, op.p, op.c = flags&1 != 0, flags&2 != 0, flags&4 != 0
				op.lo = uint64(data[2]%64) * 4
				op.hi = op.lo + 4 + uint64(flags>>3)%8
			}
			stepSpec(t, q, s, step, op)
			data = data[3:]
		}
	})
}

// TestOrderedQueueSpecWindowInvariant: after any legal stream, no live
// register sits outside [base, base+n) in the spec model — confirming the
// stream generator respects the hardware contract (otherwise the
// equivalence above would be vacuous for the wraparound cases).
func TestOrderedQueueSpecWindowInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 4
	s := newSpecQueue(n)
	for step := 0; step < 5000; step++ {
		switch rng.Intn(6) {
		case 0:
			amt := rng.Intn(2)
			s.Rotate(amt)
		case 1:
			s.AMov(rng.Intn(n), rng.Intn(n))
		default:
			lo := uint64(rng.Intn(32) * 8)
			s.OnMem(step, true, true, false, rng.Intn(n), 0, lo, lo+8)
		}
		for order := range s.entries {
			if order < s.base || order >= s.base+n {
				t.Fatalf("step %d: live order %d outside window [%d,%d)", step, order, s.base, s.base+n)
			}
		}
	}
}

// specBitmask is the literal model of the Efficeon scheme: named
// registers, explicit masks.
type specBitmask struct {
	regs map[int]specEntry
}

func (s *specBitmask) OnMem(opID int, isStore, p, c bool, offset int, mask uint16, lo, hi uint64) *Conflict {
	if c {
		var best *Conflict
		bestReg := -1
		for r, e := range s.regs {
			if mask&(1<<uint(r)) == 0 {
				continue
			}
			if lo < e.hi && e.lo < hi {
				if best == nil || r < bestReg {
					best = &Conflict{Checker: opID, Origin: e.origin}
					bestReg = r
				}
			}
		}
		if best != nil {
			return best
		}
	}
	if p {
		s.regs[offset] = specEntry{lo: lo, hi: hi, byStore: isStore, origin: opID}
	}
	return nil
}

// TestBitmaskMatchesSpec drives the Bitmask detector and its literal model
// with identical random streams.
func TestBitmaskMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := NewBitmask(15)
	s := &specBitmask{regs: map[int]specEntry{}}
	for step := 0; step < 20000; step++ {
		if rng.Intn(20) == 0 {
			b.Reset()
			s.regs = map[int]specEntry{}
			continue
		}
		isStore := rng.Intn(2) == 0
		p := rng.Intn(2) == 0
		c := rng.Intn(2) == 0
		off := rng.Intn(15)
		mask := uint16(rng.Intn(1 << 15))
		lo := uint64(rng.Intn(64) * 4)
		hi := lo + uint64(4+rng.Intn(8))
		got, hit := b.OnMem(step, isStore, p, c, off, mask, lo, hi)
		want := s.OnMem(step, isStore, p, c, off, mask, lo, hi)
		if hit != (want != nil) {
			t.Fatalf("step %d: conflict mismatch: impl=%v spec=%v", step, hit, want)
		}
		if hit && got.Origin != want.Origin {
			t.Fatalf("step %d: origin mismatch: impl=%d spec=%d", step, got.Origin, want.Origin)
		}
	}
}
