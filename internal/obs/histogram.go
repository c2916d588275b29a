package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the upper bounds, in seconds, of the
// fixed histogram buckets used for Web API and block-transfer
// latencies. They span 1 ms to 60 s roughly exponentially — wide
// enough for both the simulation substrate (scaled clocks compress
// real transfers into milliseconds) and real consumer clouds, whose
// per-request latencies the paper measured in the 0.1–10 s range. An
// implicit +Inf bucket catches everything beyond the last bound.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram with atomic bucket counts.
// Observations are lock-free; quantiles are estimated by linear
// interpolation inside the containing bucket, which is exact enough
// for p50/p95/p99 dashboards and deterministic for tests (the bucket
// layout never changes at runtime).
type Histogram struct {
	bounds []float64      // sorted upper bounds; counts has one extra +Inf slot
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// ObserveDuration records a duration sample in seconds. Negative
// durations (clock anomalies) are clamped to zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(d.Seconds())
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// bucketQuantile estimates the q-th quantile from raw bucket counts
// over the given bounds (buckets has one extra trailing +Inf slot).
// Shared by live Histograms' snapshots and merged ones so a fleet
// rollup reports exactly what one histogram holding the union of the
// samples would.
func bucketQuantile(bounds []float64, buckets []int64, total int64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the sample we are after.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		if seen+n < rank {
			seen += n
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: the best point estimate we have is the
			// largest finite bound.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := float64(rank-seen) / float64(n)
		return lo + (hi-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// HistogramSnapshot is a point-in-time summary of a Histogram. It
// carries the raw bucket counts alongside the derived quantiles so
// snapshots from many registries (one per tenant) can be merged into
// a fleet aggregate whose quantiles are recomputed from the combined
// distribution rather than averaged.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Bounds are the bucket upper bounds; Buckets the per-bucket
	// counts, with one extra trailing +Inf slot.
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// snapshot summarizes the histogram. Concurrent observations may land
// between the bucket reads; callers that need exact reconciliation
// quiesce writers first (tests do, by construction). Count is the sum
// of the captured buckets, so the snapshot is always self-consistent.
func (h *Histogram) snapshot() HistogramSnapshot {
	buckets := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		total += buckets[i]
	}
	bounds := make([]float64, len(h.bounds))
	copy(bounds, h.bounds)
	s := HistogramSnapshot{
		Count:   total,
		Sum:     h.Sum(),
		Bounds:  bounds,
		Buckets: buckets,
		P50:     bucketQuantile(bounds, buckets, total, 0.50),
		P95:     bucketQuantile(bounds, buckets, total, 0.95),
		P99:     bucketQuantile(bounds, buckets, total, 0.99),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	return s
}

// mergeHistogramSnapshots combines b into a and recomputes the
// derived statistics. Bounds must match (all obs histograms share
// DefaultLatencyBuckets); on a mismatch, or when either side lacks
// buckets, only Count/Sum/Mean merge and the quantiles keep a's
// values — degraded but never wrong about totals.
func mergeHistogramSnapshots(a, b HistogramSnapshot) HistogramSnapshot {
	out := a
	out.Count = a.Count + b.Count
	out.Sum = a.Sum + b.Sum
	if out.Count > 0 {
		out.Mean = out.Sum / float64(out.Count)
	}
	if b.Count == 0 {
		return out
	}
	if a.Count == 0 {
		out.Bounds = b.Bounds
		out.Buckets = b.Buckets
		out.P50, out.P95, out.P99 = b.P50, b.P95, b.P99
		return out
	}
	if len(a.Buckets) == 0 || len(a.Buckets) != len(b.Buckets) || !equalBounds(a.Bounds, b.Bounds) {
		return out
	}
	buckets := make([]int64, len(a.Buckets))
	for i := range buckets {
		buckets[i] = a.Buckets[i] + b.Buckets[i]
	}
	out.Buckets = buckets
	out.P50 = bucketQuantile(out.Bounds, buckets, out.Count, 0.50)
	out.P95 = bucketQuantile(out.Bounds, buckets, out.Count, 0.95)
	out.P99 = bucketQuantile(out.Bounds, buckets, out.Count, 0.99)
	return out
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
