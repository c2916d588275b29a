package sched

import (
	"errors"
	"sort"
	"sync"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/obs"
	"unidrive/internal/stats"
)

// Direction distinguishes upload from download channels, which the
// paper found to be only weakly correlated and therefore probes
// separately.
type Direction int

// Probing directions.
const (
	Up Direction = iota + 1
	Down
)

// String names the direction.
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// DefaultAlpha is the EWMA smoothing factor for latency and bandwidth
// samples. Recent samples dominate — the whole point of in-channel
// probing is reacting to transient network conditions.
const DefaultAlpha = 0.4

// MinBandwidthSample is the payload size below which a request's
// duration says nothing usable about bandwidth: version stamps, lock
// flags, listings and metadata deltas of a few KB fit one transport
// window and take one Web-API round trip however fast the pipe is.
// Such requests are latency samples; only larger transfers are
// bandwidth samples.
const MinBandwidthSample = 64 << 10

// unmeasuredWindow is the prior for a bandwidth nobody has measured
// yet: one initial congestion window (ten segments, RFC 6928) per
// round trip, what a connection gets before it has proved anything.
// Deliberately pessimistic: a block handed to a cloud that turns out
// slow is pinned there by the plan's K-block budget and the whole
// batch waits for it, while a cloud left unexplored costs at most its
// share of the bandwidth — and it is still explored when a batch is
// large enough to admit it at this rate, or a segment requires it.
const unmeasuredWindow = 16 << 10

// minNetFraction bounds how much of a transfer's duration the latency
// estimate may explain away: with jittery latency a transfer can
// finish in less than the smoothed round trip, and the bandwidth
// sample must stay finite and positive.
const minNetFraction = 0.1

// failurePenalty is what one certain failure adds to an estimate: the
// request has to be detected as failed and sent again, whatever the
// cloud's good-day numbers say. It is weighted by the smoothed
// failure rate, so it decays as requests succeed again.
const failurePenalty = time.Second

// channel is the model of one (cloud, direction): a request of b
// bytes takes latency + b ÷ bandwidth on one connection, plus the
// expected cost of failing.
type channel struct {
	latency   *stats.EWMA // seconds per request
	bandwidth *stats.EWMA // bytes/second per connection, net of latency
	// failRate smooths 0 per success and 1 per failure; every
	// observation feeds it, so its count is the channel's sample count.
	failRate *stats.EWMA
}

// Prober implements in-channel bandwidth probing (paper §6.2): every
// request the client sends doubles as a probe, and no explicit probe
// traffic is ever sent. Each (cloud, direction) is modelled as
//
//	duration = latency + bytes ÷ bandwidth
//
// Requests below MinBandwidthSample update only the latency term;
// payload-bearing transfers update the bandwidth term with the
// latency estimate taken out (until the first one, bandwidth is
// assumed to be one unmeasuredWindow per round trip); failures add a
// decaying penalty without distorting either measurement. The schedulers ask one question —
// Estimate: how long would a transfer of this size take there — and
// rank clouds by the answer.
//
// Bandwidth is per connection (rather than aggregate) because
// UniDrive opens multiple concurrent HTTP connections per cloud and
// schedules work per block on individual connections.
type Prober struct {
	alpha float64

	mu       sync.Mutex
	channels map[string]*channel
	obs      *obs.Registry
}

// NewProber returns a Prober with the given EWMA alpha (0 uses
// DefaultAlpha).
func NewProber(alpha float64) *Prober {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	return &Prober{alpha: alpha, channels: make(map[string]*channel)}
}

func key(cloudName string, dir Direction) string {
	return cloudName + "|" + dir.String()
}

// SetObs publishes both terms of every channel's model as gauges
// ("sched.probe.<cloud>.<dir>_bps" and
// "sched.probe.<cloud>.<dir>_latency_ms") in reg, updated on each
// observation. Call before the prober is shared with transfer
// goroutines; nil disables publication.
func (p *Prober) SetObs(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obs = reg
}

// Observe feeds one completed request: size payload bytes moved in d
// on one connection to cloudName. Zero or negative durations are
// ignored (clock anomalies under heavy load).
func (p *Prober) Observe(cloudName string, dir Direction, size int64, d time.Duration) {
	if d <= 0 || size < 0 {
		return
	}
	ch, reg := p.channel(cloudName, dir)
	ch.failRate.Observe(0)
	gauge := "sched.probe." + cloudName + "." + dir.String()
	if size < MinBandwidthSample {
		ch.latency.Observe(d.Seconds())
		reg.Gauge(gauge + "_latency_ms").Set(ch.latency.Value() * 1000)
		return
	}
	net := d.Seconds() - ch.latency.Value()
	if floor := d.Seconds() * minNetFraction; net < floor {
		net = floor
	}
	ch.bandwidth.Observe(float64(size) / net)
	reg.Gauge(gauge + "_bps").Set(ch.bandwidth.Value())
}

// ObserveFailure feeds a failed request as a strong negative signal:
// the channel's failure rate rises, pushing the cloud down the
// ranking for every transfer size until requests succeed again.
func (p *Prober) ObserveFailure(cloudName string, dir Direction) {
	ch, reg := p.channel(cloudName, dir)
	ch.failRate.Observe(1)
	reg.Counter("sched.probe.failures").Inc()
}

// ObserveCall is the prober's cloud.Observer: every upload, download
// and listing — metadata, version files, lock flags, blocks — feeds
// the prober, exactly once. This is the paper's probing scheme taken
// literally: "uses the last transmission as probes", with no
// dedicated probe traffic. Observe sorts the samples itself
// (MinBandwidthSample): small control requests measure latency, block
// transfers bandwidth. Because control-plane traffic touches all
// clouds early (version checks query every cloud), the prober has a
// latency ranking before the first data block moves.
//
// Deletes and directory creation are not observed: like a delete to
// the capacity tracker, they are evidence of neither latency under
// load nor bandwidth.
func (p *Prober) ObserveCall(c cloud.Call) {
	var dir Direction
	var size int64
	switch c.Op {
	case cloud.OpUpload:
		dir, size = Up, c.BytesUp
	case cloud.OpDownload:
		dir, size = Down, c.BytesDown
	case cloud.OpList:
		// A listing is a latency sample: its reply size is the
		// provider's business, not payload the pipe was measured with.
		dir = Down
	default:
		return
	}
	switch {
	case c.Err == nil:
		p.Observe(c.Cloud, dir, size, c.Latency)
	case errors.Is(c.Err, cloud.ErrNotFound):
		// A perfectly healthy answer, and a prompt one: a latency sample.
		// (A cloud that missed the last commit answers its stamp poll
		// this way, and must not stay "never observed" for it.)
		p.Observe(c.Cloud, dir, 0, c.Latency)
	case errors.Is(c.Err, cloud.ErrTransient) || errors.Is(c.Err, cloud.ErrUnavailable):
		// Only network-class failures say something about the cloud.
		p.ObserveFailure(c.Cloud, dir)
	}
}

func (p *Prober) channel(cloudName string, dir Direction) (*channel, *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := key(cloudName, dir)
	ch, ok := p.channels[k]
	if !ok {
		ch = &channel{
			latency:   stats.NewEWMA(p.alpha),
			bandwidth: stats.NewEWMA(p.alpha),
			failRate:  stats.NewEWMA(p.alpha),
		}
		p.channels[k] = ch
	}
	return ch, p.obs
}

// Estimate returns how long a transfer of size bytes is expected to
// take on one connection to the cloud: latency + size ÷ bandwidth,
// plus failurePenalty weighted by the recent failure rate. Until a
// bandwidth sample exists the bandwidth is taken to be one
// unmeasuredWindow per round trip, so control traffic alone ranks the
// clouds, by latency, before the first block moves, and a cloud
// nobody has measured does not pass for a fast one next to clouds
// that have been. ok is false while the channel has never been
// observed.
func (p *Prober) Estimate(cloudName string, dir Direction, size int64) (d time.Duration, ok bool) {
	p.mu.Lock()
	ch := p.channels[key(cloudName, dir)]
	p.mu.Unlock()
	if ch == nil || ch.failRate.Count() == 0 {
		return 0, false
	}
	latency := ch.latency.Value()
	secs := latency + ch.failRate.Value()*failurePenalty.Seconds()
	if bw := ch.bandwidth.Value(); bw > 0 {
		secs += float64(size) / bw
	} else {
		secs += latency * float64(size) / unmeasuredWindow
	}
	return time.Duration(secs * float64(time.Second)), true
}

// Rank returns the clouds sorted by Estimate for a transfer of size
// bytes in the given direction, fastest first. Clouds without any
// estimate sort above estimated ones so every cloud gets probed early
// — their first transfers are the probes. Ties break by name for
// determinism.
func (p *Prober) Rank(clouds []string, dir Direction, size int64) []string {
	type entry struct {
		name      string
		estimated bool
		estimate  time.Duration
	}
	entries := make([]entry, 0, len(clouds))
	for _, c := range clouds {
		d, ok := p.Estimate(c, dir, size)
		entries = append(entries, entry{name: c, estimated: ok, estimate: d})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.estimated != b.estimated {
			return !a.estimated // unprobed first
		}
		if a.estimate != b.estimate {
			return a.estimate < b.estimate
		}
		return a.name < b.name
	})
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.name
	}
	return out
}
