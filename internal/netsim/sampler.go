package netsim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// Sampler is the deterministic, wall-clock-free heart of the network
// model: given a seed and a set of cloud profiles it answers "what is
// cloud X's bandwidth multiplier in epoch E?" and "which cloud is in
// a degradation episode in epoch E?" as pure functions of the seed.
// It holds no mutable state, so it is trivially safe for concurrent
// use and — unlike an RNG stream — two observers asking in different
// orders (or from t.Parallel() tests) always see the same network.
//
// Env wraps a Sampler with clocks, hosts, and capacity sharing to
// turn the model into blocking simulated transfers; the trial
// harness drives the Sampler directly to evaluate the same network
// analytically at population scale, without any clock at all.
type Sampler struct {
	cfg    Config
	clouds map[string]CloudProfile
	order  []string // sorted cloud names, for stable degraded rotation
}

// NewSampler builds a sampler over the given clouds. The sampler
// only uses cfg.Seed, cfg.EpochLength, cfg.DegradedProb and the
// degradation factors; the transfer-pacing fields are Env's business.
func NewSampler(cfg Config, clouds []CloudProfile) *Sampler {
	m := make(map[string]CloudProfile, len(clouds))
	order := make([]string, 0, len(clouds))
	for _, c := range clouds {
		m[c.Name] = c
		order = append(order, c.Name)
	}
	sort.Strings(order)
	return &Sampler{cfg: cfg, clouds: m, order: order}
}

// Clouds returns the sorted names of the modeled clouds.
func (s *Sampler) Clouds() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Profile returns the named cloud's profile.
func (s *Sampler) Profile(name string) (CloudProfile, bool) {
	cp, ok := s.clouds[name]
	return cp, ok
}

// Epoch returns the fluctuation-epoch index at offset d from the
// simulation start.
func (s *Sampler) Epoch(d time.Duration) int64 {
	if s.cfg.EpochLength <= 0 {
		return 0
	}
	return int64(d / s.cfg.EpochLength)
}

// Unit returns a deterministic pseudo-random value in [0,1) derived
// from the sampler's seed and the given labels. Equal inputs always
// give equal outputs, which makes the fluctuation process
// reproducible and consistent across concurrent observers.
func (s *Sampler) Unit(labels ...any) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", s.cfg.Seed)
	for _, l := range labels {
		fmt.Fprintf(h, "|%v", l)
	}
	// FNV alone does not avalanche a short trailing change (e.g. an
	// epoch counter) into the high bits; finish with a splitmix64
	// style mixer so nearby inputs give independent outputs.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// gaussPair converts two uniform draws into one standard normal via
// Box–Muller.
func gaussPair(u1, u2 float64) float64 {
	if u1 <= 0 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// TempMultiplier returns the temporal bandwidth multiplier for the
// given cloud/direction at epoch ep: a log-normal draw, with an
// occasional deep fade, both deterministic in (seed, cloud, dir, ep).
// An unknown cloud gets multiplier 1.
func (s *Sampler) TempMultiplier(cloudName string, dir Direction, ep int64) float64 {
	cp, ok := s.clouds[cloudName]
	if !ok {
		return 1
	}
	sigma := cp.Sigma
	if sigma == 0 {
		sigma = 0.4
	}
	g := gaussPair(s.Unit("mult1", cp.Name, dir, ep), s.Unit("mult2", cp.Name, dir, ep))
	mult := math.Exp(sigma * g)
	if s.Unit("fade", cp.Name, dir, ep) < cp.FadeProb {
		depth := 0.05 + 0.25*s.Unit("fadedepth", cp.Name, dir, ep)
		mult *= depth
	}
	return mult
}

// DegradedCloud returns the name of the cloud degraded during epoch
// ep, or "" when none is. At most one cloud is degraded per epoch,
// which is what produces the negative cross-cloud failure correlation
// observed in the paper's Table 1.
func (s *Sampler) DegradedCloud(ep int64) string {
	if len(s.order) == 0 {
		return ""
	}
	if s.Unit("degraded?", ep) >= s.cfg.DegradedProb {
		return ""
	}
	idx := int(s.Unit("degradedwho", ep) * float64(len(s.order)))
	if idx >= len(s.order) {
		idx = len(s.order) - 1
	}
	return s.order[idx]
}

// FailureProb returns the probability that a request of the given
// size fails transiently in epoch ep, as seen from a location with
// the given failure boost. The clamp keeps even huge transfers from
// certain-failure so retries stay meaningful.
func (s *Sampler) FailureProb(cloudName string, failureBoost float64, size int64, ep int64) float64 {
	cp, ok := s.clouds[cloudName]
	if !ok {
		return 0
	}
	if failureBoost == 0 {
		failureBoost = 1
	}
	p := cp.BaseFailure + cp.FailurePerMB*float64(size)/(1<<20)
	p *= failureBoost
	if s.DegradedCloud(ep) == cloudName {
		p *= s.cfg.DegradedFailureBoost
	}
	if p > 0.95 {
		p = 0.95
	}
	return p
}

// CloudRate returns the cloud's per-account capacity in bytes/second
// for the direction at epoch ep, after the spatial factor and the
// temporal multiplier (including any degradation episode). spatial
// <= 0 returns 0 (unreachable).
func (s *Sampler) CloudRate(cloudName string, dir Direction, spatial float64, ep int64) float64 {
	cp, ok := s.clouds[cloudName]
	if !ok || spatial <= 0 {
		return 0
	}
	base := cp.UpMbps
	if dir == Download {
		base = cp.DownMbps
	}
	mult := s.TempMultiplier(cloudName, dir, ep)
	if s.DegradedCloud(ep) == cloudName {
		mult *= s.cfg.DegradedRateFactor
	}
	return mbpsToBytesPerSec(base * spatial * mult)
}

// ConnRate returns one connection's throughput cap in bytes/second
// for the cloud at epoch ep. The per-connection cap fluctuates with
// the same network conditions as the aggregate capacity — a congested
// path slows single connections too.
func (s *Sampler) ConnRate(cloudName string, dir Direction, ep int64) float64 {
	cp, ok := s.clouds[cloudName]
	if !ok {
		return 0
	}
	mult := s.TempMultiplier(cloudName, dir, ep)
	if s.DegradedCloud(ep) == cloudName {
		mult *= s.cfg.DegradedRateFactor
	}
	return mbpsToBytesPerSec(cp.PerConnMbps * mult)
}
