package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted: the
// smallest value with at least a fraction p of the samples at or below it.
// With n samples exactly n − ⌈p·n⌉ lie beyond it, so p99 has ten samples
// beyond it from n = 1000 on.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the two middle values for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is the window-to-window dispersion printed beside each metric:
// (max − min) / median, 0 when the median is 0.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(xs); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// orderBalancedRatio estimates a/b from pairs measured back to back in
// alternating order — a[i] before b[i] for even i, after it for odd i. It is
// the geometric mean of the two orders' median ratios, so whatever the second
// call of a pair gains from following the first cancels.
func orderBalancedRatio(a, b []float64) float64 {
	var byOrder [2][]float64
	for i := range a {
		byOrder[i%2] = append(byOrder[i%2], a[i]/b[i])
	}
	return math.Sqrt(median(byOrder[0]) * median(byOrder[1]))
}
