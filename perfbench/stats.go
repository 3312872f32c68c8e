package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have above
// it: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// beyond returns how many of n samples lie above the nearest-rank q-th
// percentile (rank ⌈q·n⌉, 1-based).
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// supported reports whether n samples carry the q-th percentile.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// quantile returns the nearest-rank q-th percentile of xs (NaN when empty).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median returns the middle value of xs, averaging the two middle ones for
// an even count (NaN when empty). xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
