// Package health is UniDrive's per-cloud fault domain tracker.
//
// The paper's reliability argument (§4.2, §6.3) is passive: any K of
// the erasure-coded blocks reconstruct a file, so a dead cloud merely
// costs redundancy. This package makes failure handling active. Every
// Web API outcome feeds a per-cloud health record — an EWMA of the
// error rate, an EWMA of request latency, and a consecutive-failure
// streak — which drives a three-state circuit breaker:
//
//	closed ──(failures trip)──▶ open ──(cooldown)──▶ half-open
//	   ▲                                                 │
//	   └──(probe successes)──────────────────────────────┘
//
// While a breaker is open, the cloud chain it gates rejects requests
// with cloud.ErrCircuitOpen instead of burning the retry budget
// against a cloud that is known to be down; the transfer engine,
// scheduler and quorum lock treat such a cloud as an outage and route
// around it. Half-open admits a bounded number of probe requests;
// enough consecutive probe successes close the breaker again.
//
// Everything is deterministic under test: time comes from the
// injected vclock.Clock and the re-probe jitter from a seeded PRNG,
// so a chaos run that replays the same outcome sequence observes the
// same breaker transitions.
package health

import (
	"math/rand"
	"sync"
	"time"

	"unidrive/internal/obs"
	"unidrive/internal/stats"
	"unidrive/internal/vclock"
)

// The breaker's rules, one value each (DESIGN.md §7).
const (
	// failureThreshold is the consecutive-failure count that trips a
	// closed breaker.
	failureThreshold = 3
	// tripErrorRate trips a closed breaker when the EWMA error rate
	// reaches it with at least minSamples observations, so a cloud
	// failing most — but not strictly all — requests still trips.
	tripErrorRate = 0.8
	minSamples    = 8
	// OpenTimeout is the base cooldown an open breaker waits before
	// moving to half-open; the actual wait is jittered ±25% from the
	// seeded PRNG.
	OpenTimeout = 30 * time.Second
	// halfOpenProbes is how many unreported requests a half-open
	// breaker admits at once.
	halfOpenProbes = 1
	// closeAfter is how many consecutive probe successes close a
	// half-open breaker.
	closeAfter = 2
	// alpha is the smoothing factor of the error-rate and latency
	// EWMAs (higher = more weight on recent samples).
	alpha = 0.3
)

// Tracker holds one Breaker per cloud, created lazily on first use.
// A single Tracker is shared by the whole client stack so the
// transfer engine, scheduler and lock protocol all see the same
// picture of each cloud's health.
type Tracker struct {
	clock vclock.Clock
	obs   *obs.Registry

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[string]*Breaker
}

// NewDefaultTracker returns a Tracker whose breakers run on clk. seed
// seeds the re-probe jitter (0 means 1), so a fixed seed makes breaker
// timing reproducible; reg receives transition counters and state
// gauges (nil discards them). A cloud.ErrUnavailable trips a closed
// breaker at once, since that error already means "the whole service
// is unreachable", not "one request failed".
func NewDefaultTracker(clk vclock.Clock, seed int64, reg *obs.Registry) *Tracker {
	if seed == 0 {
		seed = 1
	}
	return &Tracker{
		clock:    clk,
		obs:      reg,
		rng:      rand.New(rand.NewSource(seed)),
		breakers: make(map[string]*Breaker),
	}
}

// Breaker returns the named cloud's breaker, creating it (closed) on
// first use.
func (t *Tracker) Breaker(cloudName string) *Breaker {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.breakerLocked(cloudName)
}

func (t *Tracker) breakerLocked(cloudName string) *Breaker {
	b, ok := t.breakers[cloudName]
	if !ok {
		b = &Breaker{
			t:       t,
			cloud:   cloudName,
			errRate: stats.NewEWMA(alpha),
			latency: stats.NewEWMA(alpha),
		}
		t.breakers[cloudName] = b
		t.obs.Gauge("health.breaker." + cloudName + ".state").Set(float64(Closed))
	}
	return b
}

// Admits reports whether the named cloud is currently worth planning
// work on: its breaker is closed, or half-open (probes may flow).
// Unlike Allow, Admits does not consume a probe slot — schedulers use
// it to filter candidates, the cloud chain uses Allow to gate real calls.
func (t *Tracker) Admits(cloudName string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.breakerLocked(cloudName)
	b.refreshLocked()
	return b.state != Open
}

// Healthiest filters candidates down to admitted clouds and orders
// them best-first: closed before half-open, then by EWMA error rate,
// then by EWMA latency, with the name as the deterministic tiebreak.
func (t *Tracker) Healthiest(candidates []string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(candidates))
	for _, name := range candidates {
		b := t.breakerLocked(name)
		b.refreshLocked()
		if b.state != Open {
			out = append(out, name)
		}
	}
	less := func(a, b *Breaker) bool {
		if a.state != b.state {
			return a.state < b.state // Closed(0) < HalfOpen(1)
		}
		if a.errRate.Value() != b.errRate.Value() {
			return a.errRate.Value() < b.errRate.Value()
		}
		if a.latency.Value() != b.latency.Value() {
			return a.latency.Value() < b.latency.Value()
		}
		return a.cloud < b.cloud
	}
	// Insertion sort: candidate lists are the handful of clouds.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(t.breakers[out[j]], t.breakers[out[j-1]]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ReportCorrupt feeds one integrity failure for the named cloud into
// its breaker (see Breaker.ReportCorrupt).
func (t *Tracker) ReportCorrupt(cloudName string) {
	t.Breaker(cloudName).ReportCorrupt()
}
