package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of vs
// by the "exclusive" method of Python's statistics.quantiles(vs, n=4), so
// a spread computed here matches one computed from the same numbers
// there. It needs at least two values; with fewer it returns the single
// value (or zeros) for all three.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		// Clamp first, then take delta: Python extrapolates past the ends
		// for very short inputs, and so must this.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle value of vs (mean of the middle two for an even
// count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of ds,
// which must be sorted ascending; 0 for no values.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(ds))))
	if rank < 1 {
		rank = 1
	}
	return ds[rank-1]
}

// ratio is a/b, or 0 when b is 0, as for a counter the phase never moved.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
