// Package stats provides the small statistical toolkit used across
// UniDrive: summary statistics for experiment tables, Pearson
// correlation for the failure-correlation study (paper Table 1), and
// the exponentially weighted moving average that powers in-channel
// bandwidth probing.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when xs has
// fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns 0 for an
// empty slice and panics when p is out of range.
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Pearson returns the Pearson correlation coefficient between the
// paired samples xs and ys. It returns an error when the slices have
// different lengths, fewer than two samples, or zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: sample length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 samples, have %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: zero variance in sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Summary bundles the descriptive statistics reported in the paper's
// figures (average with min/max whiskers).
type Summary struct {
	Count int
	Mean  float64
	Min   float64
	Max   float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	return Summary{
		Count: len(xs),
		Mean:  Mean(xs),
		Min:   Min(xs),
		Max:   Max(xs),
	}
}

// EWMA is a thread-safe exponentially weighted moving average. It is
// the estimator behind UniDrive's in-channel bandwidth probing: each
// completed block transfer feeds its observed throughput into the
// per-cloud EWMA, and the scheduler ranks clouds by the smoothed value.
//
// The zero value is not usable; construct with NewEWMA.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	value float64
	n     int
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. A
// larger alpha weighs recent samples more heavily. NewEWMA panics on
// out-of-range alpha.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of range (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe feeds a new sample into the average.
func (e *EWMA) Observe(x float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		e.value = x
	} else {
		e.value = e.alpha*x + (1-e.alpha)*e.value
	}
	e.n++
}

// Value returns the current smoothed value, or 0 before any sample.
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Count reports how many samples have been observed.
func (e *EWMA) Count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}
