package main

import (
	"math"
	"sort"
)

func sorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (the mean of the middle two for an
// even count), or 0 for no samples.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile and whether the
// sample supports it: a percentile is reported only when at least ten
// samples lie beyond it (p90 needs a hundred samples).
func percentile(vs []float64, p float64) (float64, bool) {
	n := len(vs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted(vs)[rank-1], n-rank >= 10
}

// quartiles returns the three cut points the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// how the benchmark's run-to-run spread is defined.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sorted(vs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
