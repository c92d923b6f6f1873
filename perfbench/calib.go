package main

import (
	"math"
	"sync"
	"time"
)

// The host-speed gauge. On a shared host the speed of a core drifts, and
// for minutes at a time it can fall to half. Host times measured at
// different moments then differ by far more than any change to the
// program. So the benchmark times a fixed kernel of its own after every
// pass, on as many goroutines as the workload keeps busy, and scales the
// run's host times to a host on which each of those goroutines runs the
// kernel at refKernelSpeed. The kernel is benchmark code: a change to the
// program does not move it, so a program that got faster still reads
// faster, while a slower host no longer reads as a slower program.

const (
	// kernelIters is the length of one kernel run: about 4 ms on a 2-core
	// shared x86-64 host.
	kernelIters = 1 << 19
	// kernelWords sizes each goroutine's working set: 1 MiB, about the
	// guest memory of a scaled suite program.
	kernelWords = 1 << 17
	// refKernelSpeed is the reference host's kernel speed per goroutine,
	// in iterations per nanosecond: the usual reading on the 2-core shared
	// x86-64 host the benchmark was built on, so the scaled times read
	// close to the raw ones there.
	refKernelSpeed = 0.128
	// setupElasticity is the elasticity (see speedFactor) of set-up.
	setupElasticity = 1.25
)

// kernelBufs are the kernel's working sets, one per goroutine.
var kernelBufs [][]uint64

// kernelSink keeps the kernel's results live.
var kernelSink [64]uint64

// hostSpeed runs the kernel on threads goroutines at once and returns the
// speed per goroutine, in kernel iterations per nanosecond.
func hostSpeed(threads int) float64 {
	for len(kernelBufs) < threads {
		kernelBufs = append(kernelBufs, make([]uint64, kernelWords))
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kernelSink[g%len(kernelSink)] += kernel(kernelBufs[g])
		}(g)
	}
	wg.Wait()
	return float64(kernelIters) / float64(time.Since(t0).Nanoseconds())
}

// kernel is a fixed mix of dependent integer arithmetic, branches and
// pseudo-random loads and stores over buf, whose length is a power of two.
func kernel(buf []uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(buf) - 1)
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		v := buf[j]
		if v&1 == 0 {
			v += x
		} else {
			v ^= x >> 3
		}
		buf[j] = v
	}
	return x
}

// speedFactor is how much faster than the reference host the host ran a
// piece of work when the kernel read speed: host times of the work
// multiplied by it are reference-host times. elasticity is how far the
// work's speed moves per unit move of the kernel's, both in logarithms.
// The kernel takes out only part of a slow period of the host, by an
// amount that depends on the work: when the suite ran at half speed the
// kernel ran at about 0.72 of its speed. Each elasticity in this package
// is the one that, over three sets of ten-seed runs made across fast and
// slow periods of the reference host, left the medians of the sets
// closest together (see README.md).
func speedFactor(speed, elasticity float64) float64 {
	return math.Pow(speed/refKernelSpeed, elasticity)
}
