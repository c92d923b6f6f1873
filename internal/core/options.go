package core

import "smarq/internal/deps"

// Options select allocator ablations. The zero value is the full SMARQ
// algorithm; each flag removes one design element so its contribution can
// be measured (the ablation studies in DESIGN.md).
type Options struct {
	// DisableAnti drops anti-constraint generation (and with it the AMOV
	// machinery). Allocation then only honours check-constraints, so a
	// checker's window may accidentally cover registers of operations it
	// was never reordered against — the §4.2 false positives. The runtime
	// survives them (rollback + conservative re-optimization) but pays;
	// the ablation quantifies how much.
	DisableAnti bool
	// DisableRotation never rotates the queue: BASE stays 0 and offsets
	// equal orders, so registers are never reused and the working set is
	// the full allocation count (§3.2's motivation, measured).
	DisableRotation bool
}

// NewAllocatorOpts is NewAllocator with ablation options.
func NewAllocatorOpts(numOps int, ds *deps.Set, numRegs int, opts Options) *Allocator {
	a := new(Allocator)
	a.Reset(numOps, ds, numRegs, opts)
	return a
}
