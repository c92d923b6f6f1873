// Package aliashw models the alias-detection hardware variants the paper
// compares (Table 1): the order-based alias register queue SMARQ manages,
// an Itanium-like ALAT, a Transmeta-Efficeon-like bit-mask scheme, and a
// null detector.
package aliashw

import (
	"fmt"
	"math/bits"
)

// Conflict reports a detected alias: the op that performed the check and
// the op whose alias register it conflicted with (the "origin" travels
// with the register contents, including through AMOV moves, so the runtime
// can blacklist the right pair).
type Conflict struct {
	Checker, Origin int
}

// Detector is the runtime interface the VLIW consults on every memory
// operation of a translated region.
type Detector interface {
	// OnMem is called with the executing op's identity, kind, alias
	// annotations (P/C bits, register offset, and — for the bit-mask
	// hardware — the explicit check mask), and its runtime address range
	// [lo, hi). It reports the Conflict and true when an alias exception
	// must abort the region. For an op with both P and C the check
	// happens before the set (§3.1). The conflict is returned by value so
	// the no-conflict path, the overwhelmingly common one, allocates
	// nothing.
	OnMem(opID int, isStore, p, c bool, offset int, mask uint16, lo, hi uint64) (Conflict, bool)
	// Rotate advances the queue BASE pointer (order-based only).
	Rotate(n int)
	// AMov moves the register at src to dst, or clears src when src==dst
	// (order-based only).
	AMov(src, dst int)
	// Reset clears all state (called at region commit and rollback).
	Reset()
	// Checked returns the cumulative number of register comparisons the
	// hardware has performed — the energy proxy of §2.4 ("unnecessary
	// alias detections ... cost energy"). Reset does not clear it.
	Checked() uint64
	// Name identifies the model in traces and tables.
	Name() string
}

// entry is one alias register's recorded access. Whether it is live is
// kept outside the entry (a bitset in OrderedQueue and Bitmask; the ALAT
// keeps only live entries), so an entry is never cleared, only marked
// dead.
type entry struct {
	lo, hi uint64
	origin int
	order  int
}

func overlaps(aLo, aHi, bLo, bHi uint64) bool { return aLo < bHi && bLo < aHi }

// OrderedQueue is the order-based alias register queue of §2.4/§3: N
// physical registers organized as a circular queue with a rotating BASE.
// [ORDERED-ALIAS-DETECTION-RULE]: an executing op with the C bit checks
// every valid register whose order is not earlier than its own assigned
// order; loads do not check registers set by loads.
//
// Register validity and the set-by-store flag are two bitsets indexed by
// physical slot, one representation for every N. A check visits only the
// live registers of its window, found with count-trailing-zeros scans
// over at most two wrapped word ranges, and Reset and Rotate clear bits
// rather than entries. A slot's entry is meaningful only while its valid
// bit is set, and every write of a valid bit also writes the slot's
// byStore bit.
type OrderedQueue struct {
	// blocks holds the register file 64 slots at a time, each block with
	// its word of both bitsets: physical register s is
	// blocks[s>>6].regs[s&63]. Keeping the bitsets beside the registers
	// makes the whole file one allocation.
	blocks []regBlock
	n      int
	// base is the absolute order at BASE and pbase its physical slot,
	// base mod N, kept in [0,N) by conditional subtraction.
	base, pbase int
	// top is an exclusive upper bound, relative to base, on the order of
	// any valid in-window register: every valid entry e with
	// e.order >= base satisfies e.order < base+top, and top <= N. A check
	// scan therefore stops at top instead of walking the whole file —
	// scanning beyond it would only visit empty or stale slots, which
	// contribute neither conflicts nor Checked() counts, so the early exit
	// is invisible in the simulated statistics.
	top     int
	checked uint64
}

// regBlock is 64 consecutive physical registers and their bitset words:
// bit i of valid says register i is live, bit i of byStore that a store
// set it.
type regBlock struct {
	valid, byStore uint64
	regs           [64]entry
}

// NewOrderedQueue returns a queue with n physical alias registers.
func NewOrderedQueue(n int) *OrderedQueue {
	return &OrderedQueue{blocks: make([]regBlock, (n+63)/64), n: n}
}

// Name implements Detector.
func (q *OrderedQueue) Name() string { return fmt.Sprintf("ordered-%d", q.n) }

// NumRegs returns the physical register count.
func (q *OrderedQueue) NumRegs() int { return q.n }

// slot maps an offset relative to BASE to its physical register. An
// in-window offset (< N) needs one conditional subtract; only an
// out-of-window AMov operand pays for a modulo.
func (q *OrderedQueue) slot(offset int) int {
	if offset < 0 {
		panic(fmt.Sprintf("aliashw: negative alias register offset %d", offset))
	}
	s := q.pbase + offset
	if n := q.n; s >= n {
		s -= n
		if s >= n {
			s %= n
		}
	}
	return s
}

// put makes physical register s live with contents e.
func (q *OrderedQueue) put(s int, e entry, byStore bool) {
	blk, b := &q.blocks[s>>6], uint64(1)<<(s&63)
	blk.regs[s&63] = e
	blk.valid |= b
	if byStore {
		blk.byStore |= b
	} else {
		blk.byStore &^= b
	}
}

// OnMem implements Detector. A caller holding the concrete *OrderedQueue
// skips the interface dispatch.
func (q *OrderedQueue) OnMem(opID int, isStore, p, c bool, offset int, _ uint16, lo, hi uint64) (Conflict, bool) {
	n := q.n
	if (p || c) && uint(offset) >= uint(n) {
		panic(fmt.Sprintf("aliashw: op %d uses offset %d with %d registers", opID, offset, n))
	}
	if c && offset < q.top {
		// The window [offset, top) lies at physical slots
		// [pbase+offset, pbase+top), which wrap past N at most once. A
		// live register at slot s sits at its scan position only if its
		// order is s+delta: s - pbase + base, plus N past the wrap.
		from, to := q.pbase+offset, q.pbase+q.top
		delta := q.base - q.pbase
		if from >= n {
			from, to, delta = from-n, to-n, delta+n
		}
		if to > n {
			if conf, hit := q.scan(opID, isStore, from, n, delta, lo, hi); hit {
				return conf, true
			}
			from, to, delta = 0, to-n, delta+n
		}
		if conf, hit := q.scan(opID, isStore, from, to, delta, lo, hi); hit {
			return conf, true
		}
	}
	if p {
		s := q.pbase + offset
		if s >= n {
			s -= n
		}
		q.put(s, entry{lo: lo, hi: hi, origin: opID, order: q.base + offset}, isStore)
		if offset+1 > q.top {
			q.top = offset + 1
		}
	}
	return Conflict{}, false
}

// scan checks the live registers at physical slots [from, to) in
// ascending order, counting each one the rule compares and returning the
// first that overlaps [lo, hi). A load skips load-set registers; a slot
// whose order is not s+delta holds an out-of-window AMov target and is
// skipped as well.
func (q *OrderedQueue) scan(opID int, isStore bool, from, to, delta int, lo, hi uint64) (Conflict, bool) {
	below := uint64(1)<<uint(from&63) - 1 // bits under from in its first word
	for w := from >> 6; w<<6 < to; w++ {
		blk := &q.blocks[w]
		m := blk.valid &^ below
		below = 0
		if !isStore {
			m &= blk.byStore
		}
		if rest := to - w<<6; rest < 64 {
			m &= uint64(1)<<uint(rest) - 1
		}
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			e := &blk.regs[b]
			if e.order != (w<<6|b)+delta {
				continue
			}
			q.checked++
			if overlaps(lo, hi, e.lo, e.hi) {
				return Conflict{Checker: opID, Origin: e.origin}, true
			}
		}
	}
	return Conflict{}, false
}

// clearValid marks physical registers [from, to) dead.
func (q *OrderedQueue) clearValid(from, to int) {
	for from < to {
		w := from >> 6
		end := min(to-w<<6, 64)
		q.blocks[w].valid &^= ^uint64(0) >> uint(64-end) &^ (uint64(1)<<uint(from&63) - 1)
		from = (w + 1) << 6
	}
}

// Rotate implements Detector: the first n registers of the window are
// cleared and become free registers at the end of the queue (§3.2).
func (q *OrderedQueue) Rotate(n int) {
	if n < 0 {
		panic(fmt.Sprintf("aliashw: negative rotation %d", n))
	}
	size := q.n
	switch end := q.pbase + n; {
	case n >= size:
		q.clearValid(0, size)
		if size > 0 {
			q.pbase = end % size
		}
	case end < size:
		q.clearValid(q.pbase, end)
		q.pbase = end
	default: // the cleared run wraps past slot N-1
		q.clearValid(q.pbase, size)
		q.clearValid(0, end-size)
		q.pbase = end - size
	}
	q.base += n
	// Orders are fixed at set time, so advancing BASE shifts every live
	// register's relative position down by n.
	q.top -= n
	if q.top < 0 {
		q.top = 0
	}
}

// AMov implements Detector (§3.3): the access range at offset src moves to
// offset dst; src==dst only cleans up.
func (q *OrderedQueue) AMov(src, dst int) {
	s := q.slot(src)
	blk, b := &q.blocks[s>>6], uint64(1)<<(s&63)
	live, byStore := blk.valid&b != 0, blk.byStore&b != 0
	blk.valid &^= b
	if src == dst || !live {
		return
	}
	e := blk.regs[s&63]
	e.order = q.base + dst
	q.put(q.slot(dst), e, byStore)
	if dst+1 > q.top {
		q.top = dst + 1
	}
	if q.top > q.n {
		// An out-of-window dst wraps physically but its order can never
		// match a scan position, exactly as before the top bound existed.
		q.top = q.n
	}
}

// Reset implements Detector: it clears the valid bitset, N/64 words.
func (q *OrderedQueue) Reset() {
	for i := range q.blocks {
		q.blocks[i].valid = 0
	}
	q.base, q.pbase, q.top = 0, 0, 0
}

// Base exposes the BASE pointer for tests.
func (q *OrderedQueue) Base() int { return q.base }

// Checked implements Detector.
func (q *OrderedQueue) Checked() uint64 { return q.checked }

// ALAT is the Itanium-like detector (§2.3): advanced loads (P-bit loads in
// our encoding) record their ranges; every store checks *all* recorded
// ranges — the source of false positives — and stores never record, so
// store-store aliases are undetectable. Entries live until the region
// commits or aborts.
type ALAT struct {
	entries []entry
	checked uint64
}

// NewALAT returns an empty ALAT.
func NewALAT() *ALAT { return &ALAT{} }

// Name implements Detector.
func (a *ALAT) Name() string { return "alat" }

// OnMem implements Detector.
func (a *ALAT) OnMem(opID int, isStore, p, _ bool, _ int, _ uint16, lo, hi uint64) (Conflict, bool) {
	if isStore {
		for _, e := range a.entries {
			a.checked++
			if overlaps(lo, hi, e.lo, e.hi) {
				return Conflict{Checker: opID, Origin: e.origin}, true
			}
		}
		return Conflict{}, false
	}
	if p {
		a.entries = append(a.entries, entry{lo: lo, hi: hi, origin: opID})
	}
	return Conflict{}, false
}

// Rotate implements Detector (no-op: the ALAT is not an ordered queue).
func (a *ALAT) Rotate(int) {}

// AMov implements Detector (no-op).
func (a *ALAT) AMov(int, int) {}

// Reset implements Detector.
func (a *ALAT) Reset() { a.entries = a.entries[:0] }

// Checked implements Detector.
func (a *ALAT) Checked() uint64 { return a.checked }

// None is the null detector: no alias hardware. The scheduler must not
// have speculated.
type None struct{}

// Name implements Detector.
func (None) Name() string { return "none" }

// OnMem implements Detector.
func (None) OnMem(int, bool, bool, bool, int, uint16, uint64, uint64) (Conflict, bool) {
	return Conflict{}, false
}

// Rotate implements Detector.
func (None) Rotate(int) {}

// AMov implements Detector.
func (None) AMov(int, int) {}

// Reset implements Detector.
func (None) Reset() {}

// Checked implements Detector.
func (None) Checked() uint64 { return 0 }
