// Package netsim models the wide-area network conditions between
// client devices and consumer cloud storage services.
//
// The paper's measurement study (§3.2) found that CCS networking
// performance is (a) spatially diverse — up to 60× average disparity
// between clouds, with no cloud winning everywhere; (b) temporally
// fluctuating — up to 17× max/min daily spread with no predictable
// pattern; (c) unreliable in a size-dependent way — larger transfers
// fail more often; and (d) failure events of different clouds are
// negatively correlated. UniDrive's over-provisioning and dynamic
// scheduling exist precisely to exploit these properties, so this
// package reproduces each of them:
//
//   - Spatial diversity comes from per-(location, cloud) base-rate
//     factors in the built-in profiles (see profiles.go).
//   - Temporal fluctuation comes from a deterministic, seeded
//     per-epoch log-normal multiplier with occasional deep fades.
//   - Failures are sampled per request with a probability that grows
//     with transfer size.
//   - Negative failure correlation comes from rotating "degradation
//     episodes": in any epoch (at most) one cloud is degraded, so one
//     cloud's bad minutes are the others' normal minutes.
//
// All waiting goes through a vclock.Clock, so experiments run the
// model in scaled time.
package netsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/vclock"
)

// Direction distinguishes upload from download paths, which the paper
// measured (and found) to be only weakly correlated.
type Direction int

// Transfer directions.
const (
	Upload Direction = iota + 1
	Download
)

// String returns "upload" or "download".
func (d Direction) String() string {
	switch d {
	case Upload:
		return "upload"
	case Download:
		return "download"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// CloudProfile describes one CCS provider's network behaviour as seen
// through its public Web APIs.
type CloudProfile struct {
	// Name identifies the provider.
	Name string
	// UpMbps and DownMbps are the provider-side per-account capacity
	// (Mbit/s) at a location with spatial factor 1.0.
	UpMbps, DownMbps float64
	// PerConnMbps caps a single HTTP connection's throughput.
	PerConnMbps float64
	// BaseFailure is the per-request transient failure probability
	// for a small request at a well-connected location.
	BaseFailure float64
	// FailurePerMB adds failure probability per transferred MB
	// (paper Fig 4: larger files fail more).
	FailurePerMB float64
	// APILatency is the fixed per-request setup latency of the Web
	// API (TLS, auth, redirects). It dominates small transfers
	// (paper Fig 2 and Fig 15).
	APILatency time.Duration
	// Sigma is the log-normal fluctuation parameter for the temporal
	// bandwidth multiplier.
	Sigma float64
	// FadeProb is the per-epoch probability of a deep fade.
	FadeProb float64
}

// LocationProfile describes a client vantage point.
type LocationProfile struct {
	// Name identifies the location (e.g. "virginia").
	Name string
	// UplinkMbps and DownlinkMbps are the client's access link.
	UplinkMbps, DownlinkMbps float64
	// CloudFactor scales each cloud's base rate as seen from here
	// (spatial diversity). A missing entry means factor 1.0; a factor
	// of 0 means the cloud is unreachable from this location (e.g.
	// blocked by a national firewall).
	CloudFactor map[string]float64
	// FailureBoost multiplies every cloud's failure probability as
	// seen from this location (paper: ~99% success from US nodes to
	// US clouds, ~90% from China).
	FailureBoost float64
}

// Config bundles the environment-wide simulation parameters.
type Config struct {
	// Seed drives every random draw; equal seeds reproduce runs.
	Seed int64
	// EpochLength is the period of the temporal fluctuation process.
	EpochLength time.Duration
	// QuantumBytes is the transfer progress step between rate
	// re-evaluations.
	QuantumBytes int64
	// DegradedRateFactor scales bandwidth during a degradation
	// episode, and DegradedFailureBoost scales failure probability.
	DegradedRateFactor   float64
	DegradedFailureBoost float64
	// DegradedProb is the probability that an epoch has a degraded
	// cloud at all.
	DegradedProb float64
	// RequestOverheadBytes models HTTP header overhead per API call,
	// counted by the traffic meters (paper Table 3).
	RequestOverheadBytes int64
}

// DefaultConfig returns the parameters used by the experiments.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                 seed,
		EpochLength:          30 * time.Second,
		QuantumBytes:         256 * 1024,
		DegradedRateFactor:   0.3,
		DegradedFailureBoost: 6,
		DegradedProb:         0.35,
		RequestOverheadBytes: 600,
	}
}

// Env is a simulated wide-area network connecting any number of hosts
// (client devices at locations) to a set of clouds. It is safe for
// concurrent use.
type Env struct {
	cfg     Config
	clock   vclock.Clock
	start   time.Time
	sampler *Sampler

	mu      sync.Mutex
	hostSeq int64
	outages map[string]bool
}

// NewEnv creates a network environment over the given clouds.
func NewEnv(clock vclock.Clock, cfg Config, clouds []CloudProfile) *Env {
	return &Env{
		cfg:     cfg,
		clock:   clock,
		start:   clock.Now(),
		sampler: NewSampler(cfg, clouds),
		outages: make(map[string]bool),
	}
}

// SetOutage marks a cloud as completely unavailable (or available
// again). Used by the reliability experiments (paper Fig 14).
func (e *Env) SetOutage(cloudName string, down bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.outages[cloudName] = down
}

// Available reports whether the cloud is currently reachable.
func (e *Env) Available(cloudName string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.outages[cloudName]
}

// epoch returns the index of the current fluctuation epoch.
func (e *Env) epoch() int64 {
	return e.sampler.Epoch(e.clock.Now().Sub(e.start))
}

// mbpsToBytesPerSec converts megabits per second to bytes per second.
func mbpsToBytesPerSec(mbps float64) float64 { return mbps * 125000 }

// Host is a client device attached to the environment at a location.
// All of a device's connections to all clouds flow through its Host,
// which enforces the shared access-link capacity.
type Host struct {
	env *Env
	loc LocationProfile

	mu          sync.Mutex
	rng         *rand.Rand
	activeTotal map[Direction]int
	activeCloud map[string]map[Direction]int

	up, down cloudTrafficMeter
}

type cloudTrafficMeter struct {
	bytes int64
	calls int64
}

// NewHost attaches a new device at the given location.
//
// Each host gets its own RNG for the per-request draws (API-latency
// jitter, failure sampling, break points), seeded deterministically
// from the environment seed, the location name, and the attach
// order. A shared environment-wide stream would make any one host's
// outcomes depend on how its requests interleave with every OTHER
// host's — nondeterministic the moment two hosts (or two parallel
// tests over one Env) run concurrently. Per-host streams keep each
// host's draw sequence its own; only that host's own concurrency can
// reorder it.
func (e *Env) NewHost(loc LocationProfile) *Host {
	if loc.FailureBoost == 0 {
		loc.FailureBoost = 1
	}
	e.mu.Lock()
	seq := e.hostSeq
	e.hostSeq++
	e.mu.Unlock()
	seed := int64(math.Float64bits(e.sampler.Unit("host", loc.Name, seq)))
	return &Host{
		env:         e,
		loc:         loc,
		rng:         rand.New(rand.NewSource(seed)),
		activeTotal: make(map[Direction]int),
		activeCloud: make(map[string]map[Direction]int),
	}
}

// randFloat draws from the host's own deterministic stream.
func (h *Host) randFloat() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rng.Float64()
}

// Traffic reports the total bytes and API calls issued by this host,
// split by direction. Upload counts request payloads, download counts
// response payloads; both include per-request protocol overhead.
func (h *Host) Traffic() (upBytes, downBytes, calls int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.up.bytes, h.down.bytes, h.up.calls + h.down.calls
}

func (h *Host) acquire(cloudName string, dir Direction) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.activeTotal[dir]++
	byDir := h.activeCloud[cloudName]
	if byDir == nil {
		byDir = make(map[Direction]int)
		h.activeCloud[cloudName] = byDir
	}
	byDir[dir]++
}

func (h *Host) release(cloudName string, dir Direction) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.activeTotal[dir]--
	h.activeCloud[cloudName][dir]--
}

func (h *Host) meter(dir Direction, bytes int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch dir {
	case Upload:
		h.up.bytes += bytes
		h.up.calls++
	case Download:
		h.down.bytes += bytes
		h.down.calls++
	}
}

// currentRate returns this connection's instantaneous rate in
// bytes/second: the minimum of the per-connection cap, the fair share
// of the cloud's (fluctuating) per-account capacity, and the fair
// share of the client's access link.
func (h *Host) currentRate(cp CloudProfile, dir Direction) float64 {
	ep := h.env.epoch()
	spatial := 1.0
	if f, ok := h.loc.CloudFactor[cp.Name]; ok {
		spatial = f
	}
	if spatial <= 0 {
		return 0
	}
	link := h.loc.UplinkMbps
	if dir == Download {
		link = h.loc.DownlinkMbps
	}
	cloudCap := h.env.sampler.CloudRate(cp.Name, dir, spatial, ep)

	h.mu.Lock()
	nCloud := h.activeCloud[cp.Name][dir]
	nTotal := h.activeTotal[dir]
	h.mu.Unlock()
	if nCloud < 1 {
		nCloud = 1
	}
	if nTotal < 1 {
		nTotal = 1
	}

	rate := h.env.sampler.ConnRate(cp.Name, dir, ep)
	if share := cloudCap / float64(nCloud); share < rate {
		rate = share
	}
	if share := mbpsToBytesPerSec(link) / float64(nTotal); share < rate {
		rate = share
	}
	if rate < 1 {
		rate = 1 // never fully stall; model a trickle
	}
	return rate
}

// failureProb returns the probability that a request of the given
// size fails transiently right now.
func (h *Host) failureProb(cp CloudProfile, size int64) float64 {
	return h.env.sampler.FailureProb(cp.Name, h.loc.FailureBoost, size, h.env.epoch())
}

// Do simulates one Web API request from this host to the named cloud:
// it waits out the API latency, streams size bytes in the given
// direction under the capacity-sharing model, and returns
// cloud.ErrUnavailable during outages or cloud.ErrTransient on a
// sampled transient failure. A transient failure still costs time:
// the connection progresses to a random point before breaking, as
// real broken transfers do. Metadata-only calls pass size 0.
func (h *Host) Do(ctx context.Context, cloudName string, dir Direction, size int64) error {
	env := h.env
	cp, ok := env.sampler.Profile(cloudName)
	if !ok {
		return fmt.Errorf("netsim: unknown cloud %q", cloudName)
	}
	if !env.Available(cloudName) {
		return fmt.Errorf("netsim: %s is down: %w", cloudName, cloud.ErrUnavailable)
	}
	if spatial, ok := h.loc.CloudFactor[cloudName]; ok && spatial <= 0 {
		return fmt.Errorf("netsim: %s unreachable from %s: %w", cloudName, h.loc.Name, cloud.ErrUnavailable)
	}

	// API setup latency with mild jitter.
	lat := cp.APILatency
	if lat > 0 {
		jitter := 0.5 + h.randFloat()
		env.clock.Sleep(time.Duration(float64(lat) * jitter))
	}

	// Sample transient failure and, if failing, where in the
	// transfer the connection breaks.
	fails := h.randFloat() < h.failureProb(cp, size)
	failPoint := int64(-1)
	if fails {
		failPoint = int64(h.randFloat() * float64(size))
	}

	h.acquire(cloudName, dir)
	defer h.release(cloudName, dir)

	quantum := env.cfg.QuantumBytes
	if quantum <= 0 {
		quantum = 256 * 1024
	}
	// Sleep toward a cumulative deadline rather than per-quantum
	// durations: real sleeps always overshoot a little, and under a
	// scaled clock that overhead would be multiplied by the scale
	// factor. With a running deadline each sleep absorbs the previous
	// one's overshoot, so only the final sleep's overhead remains.
	deadline := env.clock.Now()
	sleepQuantum := func(bytes int64) {
		rate := h.currentRate(cp, dir)
		deadline = deadline.Add(time.Duration(float64(bytes) / rate * float64(time.Second)))
		if wait := deadline.Sub(env.clock.Now()); wait > 0 {
			env.clock.Sleep(wait)
		}
	}
	var sent int64
	for sent < size {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !env.Available(cloudName) {
			h.meter(dir, sent+env.cfg.RequestOverheadBytes)
			return fmt.Errorf("netsim: %s went down mid-transfer: %w", cloudName, cloud.ErrUnavailable)
		}
		step := quantum
		if remaining := size - sent; remaining < step {
			step = remaining
		}
		if fails && sent+step > failPoint {
			// Transfer the portion up to the break, then fail.
			if partial := failPoint - sent; partial > 0 {
				sleepQuantum(partial)
			}
			h.meter(dir, failPoint+env.cfg.RequestOverheadBytes)
			return fmt.Errorf("netsim: %s request broke at byte %d/%d: %w",
				cloudName, failPoint, size, cloud.ErrTransient)
		}
		sleepQuantum(step)
		sent += step
	}
	if fails && size == 0 {
		h.meter(dir, env.cfg.RequestOverheadBytes)
		return fmt.Errorf("netsim: %s request failed: %w", cloudName, cloud.ErrTransient)
	}
	h.meter(dir, size+env.cfg.RequestOverheadBytes)
	return nil
}
