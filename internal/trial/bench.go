// Trial bench: the population-scale harness behind `make bench-trial`.
//
// Run (the package's other entry point) drives full UniDrive clients
// — folder scanner, erasure coder, quorum lock, simulated transfers —
// which is faithful but tops out around a few thousand users per CPU
// minute. To characterize sync latency at six-figure population
// sizes, RunBench evaluates the SAME population (newUser) on the SAME
// network model analytically: each synthetic user gets an independently seeded netsim.Sampler (the
// deterministic, wall-clock-free fluctuation process the packet-level
// simulator itself uses) and each upload's availability time is
// computed from the paper's data path — K-of-N availability-first
// placement over the speed-ranked clouds, per-block transient
// failures with retry and failover, Web-API setup latency per request
// wave — instead of being clocked through a simulated socket.
//
// Everything is a pure function of (seed, user index): no wall clock,
// no shared RNG stream, no map-order dependence. The same seed
// produces byte-identical reports at any worker count, which is what
// lets BENCH_trial.json serve as a regression fixture.
package trial

import (
	"math"
	"runtime"
	"sort"
	"time"

	"unidrive/internal/netsim"
	"unidrive/internal/sched"
	"unidrive/internal/stats"
	"unidrive/internal/workload"
)

// benchTheta is the paper's segment-size target θ (4 MB).
const benchTheta = 4 << 20

// benchWeek is the trial duration; each upload happens at a uniformly
// drawn fluctuation epoch within it.
const benchWeek = 7 * 24 * time.Hour

// params are the paper's placement parameters and conns its per-cloud
// connection budget (§7.1).
var params = sched.Params{N: 5, K: 3, Kr: 3, Ks: 2}

const conns = 5

// BenchOpts sizes the analytic trial.
type BenchOpts struct {
	// Seed makes the whole population and every draw reproducible.
	Seed int64
	// Users is the population size. Default 100_000.
	Users int
	// FilesPerUser is each user's upload count over the week. Default 10.
	FilesPerUser int
	// Workers bounds simulation parallelism. Default GOMAXPROCS.
	// The report is byte-identical at any worker count.
	Workers int
}

func (o *BenchOpts) fill() {
	if o.Users <= 0 {
		o.Users = 100_000
	}
	if o.FilesPerUser <= 0 {
		o.FilesPerUser = 10
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// BenchGroup aggregates one slice of the population's uploads:
// overall, one size bucket, one network profile, or one
// bucket×profile cell.
type BenchGroup struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
	Bytes int64  `json:"bytes"`
	// MeanMbps is the mean per-upload throughput (content bits over
	// sync latency).
	MeanMbps float64 `json:"meanMbps"`
	// P50/P95/P99 of the sync latency (seconds): time from the pass
	// start until the file is AVAILABLE in the multi-cloud (K blocks
	// per segment uploaded, metadata committed).
	P50Sec float64 `json:"p50Sec"`
	P95Sec float64 `json:"p95Sec"`
	P99Sec float64 `json:"p99Sec"`
}

// BenchReport is the BENCH_trial.json document body.
type BenchReport struct {
	Seed         int64 `json:"seed"`
	Users        int   `json:"users"`
	FilesPerUser int   `json:"filesPerUser"`
	// Files counts completed uploads; OpFailed the operations that
	// failed even after retries and cross-cloud failover.
	Files    int   `json:"files"`
	OpFailed int   `json:"opFailed"`
	Bytes    int64 `json:"bytes"`
	// API accounting: every block attempt and control-plane round is
	// a Web API request; failed attempts still count (paper §7.3
	// reports 82.5% API-level vs 98.4% operation-level success).
	APICalls       int64   `json:"apiCalls"`
	APIFails       int64   `json:"apiFails"`
	APISuccessRate float64 `json:"apiSuccessRate"`
	OpSuccessRate  float64 `json:"opSuccessRate"`

	Overall  BenchGroup   `json:"overall"`
	Buckets  []BenchGroup `json:"buckets"`
	Profiles []BenchGroup `json:"profiles"`
	// Cells is the bucket×profile matrix (Figure 15's axes).
	Cells []BenchGroup `json:"cells"`
}

// mix64 decorrelates per-user seeds with a splitmix64 round, so user
// u and user u+1 do not get overlapping rand streams.
func mix64(seed int64, u int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(u+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// benchCloud is one cloud as the scheduler sees it for one upload:
// speed-ranked effective rate plus the request-level parameters.
type benchCloud struct {
	name string
	rate float64 // bytes/sec through the per-account and conn caps
	lat  float64 // API setup latency, seconds
	p    float64 // per-block transient failure probability
}

// simulateUser generates user u's uploads. It is a pure function of
// (opts, u) — workers may call it in any order.
func simulateUser(opts BenchOpts, u int) ([]sample, totals, error) {
	usr, rng := newUser(opts.Seed, u)

	// Each user's network fluctuates independently (users don't share
	// accounts): an independently seeded sampler over the same five
	// cloud profiles.
	cfg := netsim.DefaultConfig(mix64(opts.Seed^0x5DEECE66D, u))
	sampler := netsim.NewSampler(cfg, netsim.FiveClouds())
	epochs := int64(benchWeek / cfg.EpochLength)

	var out []sample
	var tot totals
	for f := 0; f < opts.FilesPerUser; f++ {
		size := workload.TrialSize(rng)
		ep := rng.Int63n(epochs)
		lat, calls, fails, ok := simulateUpload(sampler, usr.loc, rng, size, ep)
		tot.apiCalls += calls
		tot.apiFails += fails
		if !ok {
			tot.opFailed++
			continue
		}
		out = append(out, sample{
			bucket:  workload.BucketOf(size),
			profile: usr.profile,
			region:  usr.region,
			bytes:   int64(size),
			latency: lat,
			mbps:    float64(size) * 8 / lat / 1e6,
		})
	}
	return out, tot, nil
}

// simulateUpload computes one file's sync latency (seconds to
// availability) under the paper's upload algorithm, plus its API
// request accounting. ok is false when the operation failed outright:
// a block exhausted its retries on its planned cloud AND on the
// failover cloud.
func simulateUpload(s *netsim.Sampler, loc netsim.LocationProfile, rng *benchRand, size int, ep int64,
) (latency float64, apiCalls, apiFails int64, ok bool) {
	segs := (size + benchTheta - 1) / benchTheta
	segBytes := (size + segs - 1) / segs
	blockBytes := int64((segBytes + params.K - 1) / params.K)

	// Effective per-cloud upload rate: the account-side cap (spatial ×
	// temporal multipliers, degradation episodes) through at most
	// `conns` connections' worth of per-connection throttling.
	clouds := make([]benchCloud, 0, len(s.Clouds()))
	for _, name := range s.Clouds() {
		rate := s.CloudRate(name, netsim.Upload, loc.CloudFactor[name], ep)
		if cr := s.ConnRate(name, netsim.Upload, ep) * float64(conns); cr < rate {
			rate = cr
		}
		if rate <= 1 { // unreachable (blocked or fully faded)
			continue
		}
		cp, _ := s.Profile(name)
		clouds = append(clouds, benchCloud{
			name: name,
			rate: rate,
			lat:  cp.APILatency.Seconds(),
			p:    s.FailureProb(name, loc.FailureBoost, blockBytes, ep),
		})
	}
	if len(clouds) < params.K {
		// Fewer reachable clouds than data blocks: the operation
		// cannot even reach availability.
		return 0, 0, 0, false
	}
	// Speed-ranked, name-stable: the dynamic scheduler's ranking.
	sort.Slice(clouds, func(i, j int) bool {
		if clouds[i].rate != clouds[j].rate {
			return clouds[i].rate > clouds[j].rate
		}
		return clouds[i].name < clouds[j].name
	})

	// Availability phase: the K fastest clouds carry one block per
	// segment each. Draw per-block retry counts; a block that
	// exhausts its budget fails over to the next-fastest cloud.
	const maxAttempts = 5
	attemptBlock := func(c *benchCloud) (attempts int64, done bool) {
		for a := int64(1); a <= maxAttempts; a++ {
			if rng.Float64() >= c.p {
				return a, true
			}
		}
		return maxAttempts, false
	}
	opOK := true
	availBytes := int64(0) // bytes pushed through the top-K pipes, retries included
	for b := 0; b < segs*params.K; b++ {
		c := &clouds[b%params.K]
		attempts, done := attemptBlock(c)
		apiCalls += attempts
		availBytes += attempts * blockBytes
		if !done {
			apiFails += attempts
			// Failover: re-plan the block onto the next-fastest cloud.
			f := &clouds[(b%params.K+1)%len(clouds)]
			fAttempts, fDone := attemptBlock(f)
			apiCalls += fAttempts
			availBytes += fAttempts * blockBytes
			if !fDone {
				apiFails += fAttempts
				opOK = false
				continue
			}
			apiFails += fAttempts - 1
			continue
		}
		apiFails += attempts - 1
	}
	if !opOK {
		return 0, apiCalls, apiFails, false
	}

	// Reliability phase: the remaining N-K blocks per segment go to
	// the slower clouds (China clouds from most locations — where the
	// paper's 82.5% API-level success rate comes from). They happen
	// after availability, so they don't extend the latency sample,
	// but every attempt is a real API request.
	for b := 0; len(clouds) > params.K && b < segs*(params.N-params.K); b++ {
		c := &clouds[params.K+b%(len(clouds)-params.K)]
		attempts, done := attemptBlock(c)
		apiCalls += attempts
		if done {
			apiFails += attempts - 1
		} else {
			apiFails += attempts
		}
	}

	// Transfer time: the availability bytes move through the top-K
	// aggregate, capped by the client uplink.
	uplink := loc.UplinkMbps * 1e6 / 8
	aggRate := 0.0
	latSum := 0.0
	for i := 0; i < params.K; i++ {
		aggRate += clouds[i].rate
		latSum += clouds[i].lat
	}
	if uplink > 0 && aggRate > uplink {
		aggRate = uplink
	}
	transfer := float64(availBytes) / aggRate

	// Control-plane overhead: the quorum lock acquire, the metadata
	// base+delta+version commit, and the release — three parallel
	// fan-out rounds, each as slow as the slowest contacted cloud —
	// plus one API setup latency per request wave on the block path
	// (blocks per cloud / conns waves, at the top-K mean latency).
	maxLat := 0.0
	for _, c := range clouds {
		if c.lat > maxLat {
			maxLat = c.lat
		}
	}
	waves := float64((segs + conns - 1) / conns)
	overhead := 3*maxLat + waves*(latSum/float64(params.K))
	apiCalls += 3 * int64(len(clouds)) // control-plane fan-out requests

	return transfer + overhead, apiCalls, apiFails, true
}

// RunBench runs the analytic population trial. Deterministic: equal
// opts (ignoring Workers) produce byte-identical reports.
func RunBench(opts BenchOpts) *BenchReport {
	opts.fill()
	// simulateUser never fails.
	samples, tot, _ := collect(opts.Users, opts.Workers, func(u int) ([]sample, totals, error) { return simulateUser(opts, u) })
	rep := &BenchReport{
		Seed: opts.Seed, Users: opts.Users, FilesPerUser: opts.FilesPerUser,
		Files: len(samples), OpFailed: tot.opFailed, APICalls: tot.apiCalls, APIFails: tot.apiFails,
	}
	for _, s := range samples {
		rep.Bytes += s.bytes
	}
	if rep.APICalls > 0 {
		rep.APISuccessRate = 1 - float64(rep.APIFails)/float64(rep.APICalls)
	}
	if ops := rep.Files + rep.OpFailed; ops > 0 {
		rep.OpSuccessRate = float64(rep.Files) / float64(ops)
	}

	rep.Overall = group("all", samples, nil)
	for _, b := range workload.Buckets() {
		rep.Buckets = append(rep.Buckets, group(b.String(), samples,
			func(s sample) bool { return s.bucket == b }))
	}
	for pi, pname := range BenchProfiles {
		rep.Profiles = append(rep.Profiles, group(pname, samples,
			func(s sample) bool { return s.profile == pi }))
	}
	for _, b := range workload.Buckets() {
		for pi, pname := range BenchProfiles {
			rep.Cells = append(rep.Cells, group(b.String()+"/"+pname, samples,
				func(s sample) bool { return s.bucket == b && s.profile == pi }))
		}
	}
	return rep
}

// group reduces the samples matching the filter (nil = all) to one
// report row — the one aggregation behind BENCH_trial.json and
// Figs 15/16.
func group(key string, samples []sample, match func(sample) bool) BenchGroup {
	g := BenchGroup{Key: key}
	var mbpsSum float64
	var lats []float64
	for _, s := range samples {
		if match != nil && !match(s) {
			continue
		}
		g.Count++
		g.Bytes += s.bytes
		mbpsSum += s.mbps
		lats = append(lats, s.latency)
	}
	if g.Count == 0 {
		return g
	}
	g.MeanMbps = round4(mbpsSum / float64(g.Count))
	g.P50Sec = round4(stats.Percentile(lats, 50))
	g.P95Sec = round4(stats.Percentile(lats, 95))
	g.P99Sec = round4(stats.Percentile(lats, 99))
	return g
}

// round4 trims report floats to 4 decimals: enough resolution for
// regression diffs, no 17-digit noise in the JSON.
func round4(x float64) float64 {
	return math.Round(x*1e4) / 1e4
}

// benchRand is a tiny splitmix64 generator with the few draw shapes
// the bench needs. math/rand's generator would work too, but its
// internal state layout is not pinned by the Go compatibility
// promise as strongly as this 30-line generator pins itself: the
// published BENCH_trial.json must stay reproducible.
type benchRand struct{ state uint64 }

func newBenchRand(seed int64) *benchRand { return &benchRand{state: uint64(seed)} }

func (r *benchRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Float64 returns a uniform draw in [0,1).
func (r *benchRand) Float64() float64 { return float64(r.next()>>11) / float64(1<<53) }

// Intn returns a uniform draw in [0,n).
func (r *benchRand) Intn(n int) int { return int(r.Float64() * float64(n)) }

// Int63n returns a uniform draw in [0,n).
func (r *benchRand) Int63n(n int64) int64 { return int64(r.Float64() * float64(n)) }

// NormFloat64 returns a standard normal draw (Box–Muller).
func (r *benchRand) NormFloat64() float64 {
	u1, u2 := r.Float64(), r.Float64()
	if u1 <= 0 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
