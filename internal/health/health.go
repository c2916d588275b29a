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

	"unidrive/internal/cloud"
	"unidrive/internal/obs"
	"unidrive/internal/stats"
	"unidrive/internal/vclock"
)

// Config parameterizes a Tracker. The zero value is usable: every
// field has a production default filled in by NewTracker.
type Config struct {
	// FailureThreshold is the consecutive-failure count that trips a
	// closed breaker. Default 3.
	FailureThreshold int

	// TripOnUnavailable trips a closed breaker on the first
	// cloud.ErrUnavailable, since that error already means "the whole
	// service is unreachable", not "one request failed". Default true
	// (disable with a negative FailureThreshold-style override is not
	// needed; set it explicitly in Config).
	TripOnUnavailable bool

	// TripErrorRate trips a closed breaker when the EWMA error rate
	// reaches this value with at least MinSamples observations, so a
	// cloud failing most — but not strictly all — requests still
	// trips. 0 disables the rate trip. Default 0.8.
	TripErrorRate float64

	// MinSamples is the minimum observation count before TripErrorRate
	// applies. Default 8.
	MinSamples int

	// OpenTimeout is the base cooldown an open breaker waits before
	// moving to half-open; the actual wait is jittered ±25% from the
	// seeded PRNG. Default 30s.
	OpenTimeout time.Duration

	// HalfOpenProbes is how many unreported requests a half-open
	// breaker admits at once. Default 1.
	HalfOpenProbes int

	// CloseAfter is how many consecutive probe successes close a
	// half-open breaker. Default 2.
	CloseAfter int

	// Alpha is the smoothing factor of the error-rate and latency
	// EWMAs (higher = more weight on recent samples). Default 0.3.
	Alpha float64

	// Clock supplies time for cooldown scheduling. Default the real
	// wall clock.
	Clock vclock.Clock

	// Seed seeds the re-probe jitter PRNG; a fixed seed makes breaker
	// timing reproducible. Default 1.
	Seed int64

	// Obs receives breaker transition counters and state gauges. Nil
	// discards them.
	Obs *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.TripErrorRate == 0 {
		c.TripErrorRate = 0.8
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 30 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.CloseAfter <= 0 {
		c.CloseAfter = 2
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Tracker holds one Breaker per cloud, created lazily on first use.
// A single Tracker is shared by the whole client stack so the
// transfer engine, scheduler and lock protocol all see the same
// picture of each cloud's health.
type Tracker struct {
	cfg Config

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[string]*Breaker
}

// NewTracker returns a Tracker with cfg's zero fields defaulted.
// Note TripOnUnavailable keeps its literal value (a zero Config gets
// false); use NewDefaultTracker for the production configuration.
func NewTracker(cfg Config) *Tracker {
	cfg.fillDefaults()
	return &Tracker{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		breakers: make(map[string]*Breaker),
	}
}

// NewDefaultTracker returns a production-configured Tracker:
// TripOnUnavailable on, everything else at Config defaults.
func NewDefaultTracker(clk vclock.Clock, seed int64, reg *obs.Registry) *Tracker {
	return NewTracker(Config{
		TripOnUnavailable: true,
		Clock:             clk,
		Seed:              seed,
		Obs:               reg,
	})
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
			errRate: stats.NewEWMA(t.cfg.Alpha),
			latency: stats.NewEWMA(t.cfg.Alpha),
		}
		t.breakers[cloudName] = b
		t.cfg.Obs.Gauge("health.breaker." + cloudName + ".state").Set(float64(Closed))
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

// Wrap returns inner behind this tracker's breaker for the cloud:
// the breaker gates every call (cloud.Chain fails a refused one fast
// with cloud.ErrCircuitOpen — no network traffic, no retry budget
// spent) and observes the outcome of every call it admitted.
func (t *Tracker) Wrap(inner cloud.Interface) *cloud.Chain {
	b := t.Breaker(inner.Name())
	return cloud.NewChain(inner, t.cfg.Clock, b, b.ObserveCall)
}
