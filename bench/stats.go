package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so spreads computed here match the ones the benchmark is accepted on.
// With fewer than two values both quartiles are that value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tail returns the highest percentile of tailLadder that has at least
// ten samples beyond it, and the value at that percentile (nearest
// rank). ok is false when even the median has fewer than ten samples
// beyond it (fewer than 20 samples).
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 < 10 {
			break
		}
		pct, ok = p, true
	}
	if !ok {
		return 0, 0, false
	}
	return pct, percentile(xs, pct), true
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
