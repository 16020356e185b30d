package main

import (
	"math"
	"sort"
	"time"
)

// rank returns the 1-based nearest-rank position of percentile q (in
// (0,1]) among n sorted samples: the smallest rank r with r/n >= q.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median returns the nearest-rank median of xs, or 0 for no samples;
// xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), 0.5)-1]
}

// medianDur is median over durations, in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (an idle layer).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
