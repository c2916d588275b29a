package health

import (
	"context"
	"errors"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/stats"
)

// State is a circuit breaker's position.
type State int

// Breaker states. The zero value is Closed so a fresh breaker admits
// traffic.
const (
	// Closed: the cloud is believed healthy; all requests pass.
	Closed State = iota
	// HalfOpen: the cooldown elapsed; a bounded number of probe
	// requests are admitted to test whether the cloud recovered.
	HalfOpen
	// Open: the cloud is believed down; requests fail fast with
	// cloud.ErrCircuitOpen until the cooldown elapses.
	Open
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// Breaker is the per-cloud three-state circuit breaker. It is fed
// real Web API outcomes via Report and consulted via Allow; the
// classic closed → open → half-open → closed cycle (with immediate
// half-open → open on a failed probe) decides whether the transfer
// engine, scheduler and lock protocol should touch the cloud at all.
//
// All transitions happen inside Allow/Report/State under the
// breaker's lock, driven exclusively by the injected clock and the
// tracker's seeded jitter source — a chaos test that replays the same
// outcome sequence observes the same transitions.
type Breaker struct {
	t     *Tracker
	cloud string

	// Mutable state below is guarded by the tracker's mu (one lock
	// for the whole tracker keeps Healthiest snapshots consistent).
	state       State
	consecFails int
	probes      int       // admitted, still-unreported half-open probes
	probeOKs    int       // consecutive successful probes while half-open
	reopenAt    time.Time // when an open breaker admits probes again
	errRate     *stats.EWMA
	latency     *stats.EWMA
}

// State returns the breaker's current state, performing the lazy
// open → half-open transition when the cooldown has elapsed.
func (b *Breaker) State() State {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	b.refreshLocked()
	return b.state
}

// ConsecutiveFailures returns the current consecutive-failure streak.
func (b *Breaker) ConsecutiveFailures() int {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	return b.consecFails
}

// ErrorRate returns the EWMA of the cloud's per-request failure
// indicator (1 = failed, 0 = succeeded), or 0 before any sample.
func (b *Breaker) ErrorRate() float64 {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	return b.errRate.Value()
}

// Latency returns the EWMA request latency in seconds.
func (b *Breaker) Latency() float64 {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	return b.latency.Value()
}

// Allow reports whether a request may proceed. While half-open it
// admits at most Config.HalfOpenProbes unreported probe requests;
// every admission must be matched by a Report call (the cloud chain
// pairs them: the breaker is both its gate and one of its observers).
func (b *Breaker) Allow() bool {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	b.refreshLocked()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.probes >= b.t.cfg.HalfOpenProbes {
			b.rejectLocked()
			return false
		}
		b.probes++
		return true
	default:
		b.rejectLocked()
		return false
	}
}

// Report feeds one real Web API outcome (and its latency) into the
// breaker and the health EWMAs. Cancellation says nothing about the
// cloud and is ignored; NotFound and Quota are healthy protocol
// answers and count as successes.
func (b *Breaker) Report(err error, latency time.Duration) {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	b.refreshLocked()
	if b.state == HalfOpen && b.probes > 0 {
		b.probes--
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	if isFailure(err) {
		b.reportFailureLocked(errors.Is(err, cloud.ErrUnavailable))
		return
	}
	b.reportSuccessLocked(latency)
}

// ObserveCall is the breaker's cloud.Observer: the outcome and
// latency of a request the breaker admitted. The chain tells no
// observer of a call its gate refused, so the breaker only ever
// learns from real cloud outcomes.
func (b *Breaker) ObserveCall(c cloud.Call) { b.Report(c.Err, c.Latency) }

// ReportCorrupt feeds one integrity failure into the breaker:
// the cloud returned bytes that failed their checksum. Corruption is
// detected above the chain (the transfer engine compares content
// against metadata), so unlike Report it is not paired with an Allow
// admission and must not touch the half-open probe accounting — the
// chain already reported the transport-level success of the same
// call. It counts as a plain (non-outage) failure: enough corrupt
// answers trip the breaker exactly like enough request errors.
func (b *Breaker) ReportCorrupt() {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	b.refreshLocked()
	b.reportFailureLocked(false)
}

// isFailure reports whether err indicts the cloud's health.
func isFailure(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, cloud.ErrNotFound) || errors.Is(err, cloud.ErrQuotaExceeded) {
		return false
	}
	// Transient, unavailable, and unclassified errors all count.
	return true
}

func (b *Breaker) reportSuccessLocked(latency time.Duration) {
	b.consecFails = 0
	b.errRate.Observe(0)
	if latency > 0 {
		b.latency.Observe(latency.Seconds())
	}
	if b.state == HalfOpen {
		b.probeOKs++
		if b.probeOKs >= b.t.cfg.CloseAfter {
			b.toLocked(Closed, "closed")
		}
	}
}

func (b *Breaker) reportFailureLocked(unavailable bool) {
	b.consecFails++
	b.errRate.Observe(1)
	switch b.state {
	case HalfOpen:
		// A failed probe: the cloud is still sick, back to open.
		b.openLocked()
	case Closed:
		cfg := &b.t.cfg
		trip := b.consecFails >= cfg.FailureThreshold ||
			(unavailable && cfg.TripOnUnavailable) ||
			(cfg.TripErrorRate > 0 && b.errRate.Count() >= cfg.MinSamples &&
				b.errRate.Value() >= cfg.TripErrorRate)
		if trip {
			b.openLocked()
		}
	}
}

// openLocked trips the breaker and schedules the half-open probe
// window with seeded jitter (±25% of OpenTimeout), so a fleet of
// breakers tripped by one outage does not re-probe in lockstep.
func (b *Breaker) openLocked() {
	d := b.t.cfg.OpenTimeout
	jitter := time.Duration(b.t.rng.Int63n(int64(d)/2+1)) - d/4
	b.reopenAt = b.t.cfg.Clock.Now().Add(d + jitter)
	b.toLocked(Open, "opened")
}

// refreshLocked performs the time-driven open → half-open transition.
func (b *Breaker) refreshLocked() {
	if b.state == Open && !b.t.cfg.Clock.Now().Before(b.reopenAt) {
		b.toLocked(HalfOpen, "half_opened")
	}
}

// toLocked moves to a new state, resetting per-state accounting and
// emitting the transition counter and state gauge.
func (b *Breaker) toLocked(s State, transition string) {
	b.state = s
	b.probes = 0
	b.probeOKs = 0
	if s == Closed {
		b.consecFails = 0
	}
	reg := b.t.cfg.Obs
	reg.Counter("health.breaker." + b.cloud + "." + transition).Inc()
	reg.Counter("health.breaker." + transition).Inc()
	reg.Gauge("health.breaker." + b.cloud + ".state").Set(float64(s))
}

func (b *Breaker) rejectLocked() {
	reg := b.t.cfg.Obs
	reg.Counter("health.breaker." + b.cloud + ".rejected").Inc()
	reg.Counter("health.breaker.rejected").Inc()
}
