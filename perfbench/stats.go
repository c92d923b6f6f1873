package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile of sorted by the nearest-rank
// rule: the smallest sample with at least p% of the samples at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// tailPercentiles are the candidates job_ms_tail picks from, highest
// first. The ladder stops at p90 so every run of a workload reports the
// same percentile (each run has well over 100 jobs); a run too short for
// ten samples beyond p90 falls back to the next candidate and says so.
var tailPercentiles = []float64{90, 75, 50}

// tail returns the highest candidate percentile that has at least ten
// samples beyond it, its value, and how many samples lie beyond it.
func tail(xs []float64) (pct, value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if len(s)-rank >= 10 || p == tailPercentiles[len(tailPercentiles)-1] {
			return p, nearestRank(s, p), len(s) - rank
		}
	}
	panic("unreachable")
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
