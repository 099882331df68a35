package main

import (
	"math"

	"defined/internal/metrics"
)

// median of v (v is not modified). Zero for an empty slice.
func median(v []float64) float64 {
	var d metrics.Dist
	d.AddAll(v)
	return d.Median()
}

// percentile is the nearest-rank p-th percentile of an ascending slice:
// always one of the samples, which is what lets samplesBeyond count the
// samples above it (metrics.Dist interpolates between ranks).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// percentileLadder is what tailPercentile picks from, ascending.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile returns the highest percentile of the ladder, at most
// limit, that still has at least ten of the n samples beyond it; a tail
// with fewer is one or two outliers, not a percentile. With too few
// samples for any rung it falls back to the median.
func tailPercentile(n int, limit float64) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if p <= limit && samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}
