// Package obs is UniDrive's observability layer: a dependency-free
// metrics core (atomic counters, gauges, fixed-bucket latency
// histograms) plus an observer of the cloud call chain that turns
// every Web API call into a row of a per-cloud operation table.
//
// The paper's scheduling decisions are driven entirely by observed
// per-cloud performance (§4.3, §6.2: in-channel probing, bandwidth
// disparity across clouds); obs makes those observations — and what
// the transfer engine, prober, and quorum lock actually did with them
// — visible. Metrics live in an explicit Registry (no global state):
// a process creates one Registry, threads it through the components
// it cares about, and reads it back with Snapshot, the /debug/unidrive
// HTTP handler, or expvar.
//
// Design constraints, chosen so tests can assert on metric deltas
// deterministically:
//
//   - recording is lock-free (atomics only) and allocation-free on
//     the hot path;
//   - the Registry runs no background goroutines;
//   - nothing in this package reads the wall clock — latencies are
//     measured by callers with the injectable vclock.Clock and passed
//     in as durations.
//
// A nil *Registry is valid everywhere: every accessor returns a
// shared discard instance whose recording methods work but whose
// values are never reported, so instrumented code needs no nil
// checks.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter. n must not be negative; counters only
// ever go up (use a Gauge for values that move both ways).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (occupancy, throughput
// estimate, queue depth). Writes overwrite; there is no history.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a set of named metrics. All accessors get-or-create:
// the first use of a name materializes the metric, later uses return
// the same instance. Safe for concurrent use; see the package comment
// for the nil-Registry convention.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	ops      map[opKey]*OpStats
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		ops:      make(map[opKey]*OpStats),
	}
}

// Shared discard instances handed out by a nil Registry. They absorb
// writes (keeping call sites branch-free) but belong to no snapshot.
var (
	discardCounter Counter
	discardGauge   Gauge
	discardHist    = newHistogram(DefaultLatencyBuckets)
	discardOp      = newOpStats()
)

// Counter returns the counter with the given name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &discardCounter
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &discardGauge
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, created with
// DefaultLatencyBuckets on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return discardHist
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = newHistogram(DefaultLatencyBuckets)
		r.hists[name] = h
	}
	return h
}

// Op returns the per-cloud operation stats row for (cloud, op). op is
// one of the Op* constants; cloud is the provider name.
func (r *Registry) Op(cloud, op string) *OpStats {
	if r == nil {
		return discardOp
	}
	k := opKey{cloud: cloud, op: op}
	r.mu.RLock()
	s, ok := r.ops[k]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok = r.ops[k]; !ok {
		s = newOpStats()
		r.ops[k] = s
	}
	return s
}
