// Package trial simulates the paper's real-world deployment (§7.3):
// a population of pilot users across regions and access-network
// types, each running UniDrive over the five clouds and uploading a
// realistic mix of files over one week.
//
// The paper reports 272 users across 21 sites on four continents,
// with >500 GB uploaded; Figures 15 and 16 aggregate upload
// throughput by file-size bucket, location, and day, and §7.3 reports
// the API-level versus operation-level success rates and the
// Delta-sync traffic reduction. This package reproduces those
// aggregations on synthetic users: each user gets an independent
// simulated network environment (users do not share accounts, so
// their networks are independent), a profile drawn from a
// residential/university/company mix, and a region factor.
//
// Two harnesses run the one population (newUser) and reduce the one
// kind of sample (group): Run drives a real UniDrive client per user
// on a world clock — faithful, a few thousand users per CPU minute
// — and RunBench (bench.go) evaluates the same network model
// analytically at six-figure population sizes.
package trial

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"unidrive/internal/experiments"
	"unidrive/internal/netsim"
	"unidrive/internal/stats"
	"unidrive/internal/workload"
)

// Regions of the trial population (paper: America, Europe, Asia,
// Australia).
var Regions = []string{"america", "europe", "asia", "australia"}

// regionFactor scales cloud reachability per region.
var regionFactor = map[string]float64{
	"america": 1.0, "europe": 0.85, "asia": 0.6, "australia": 0.5,
}

// BenchProfiles are the access-network classes of the synthetic
// population, in report order.
var BenchProfiles = []string{"residential", "university", "company"}

// user is one member of the synthetic population.
type user struct {
	profile int // index into BenchProfiles
	region  string
	// loc is the access link; its CloudFactor already carries the
	// region factor and the user's own per-cloud jitter.
	loc netsim.LocationProfile
}

// newUser draws user u of the population for a seed — access-network
// class (50% residential, 30% university, 20% company), region, and a
// mild per-cloud jitter on top of the region factor — and returns the
// rest of the user's private random stream. It is a pure function of
// (seed, u): no shared stream, and the per-cloud jitter is drawn in
// sorted-name order, because ranging over the map directly would
// consume the stream in a random order and break the determinism the
// published report depends on.
func newUser(seed int64, u int) (user, *benchRand) {
	rng := newBenchRand(mix64(seed, u))
	var usr user
	switch p := rng.Float64(); {
	case p < 0.5:
		usr.profile, usr.loc = 0, netsim.ResidentialLocation(fmt.Sprintf("res-%d", u))
	case p < 0.8:
		usr.profile, usr.loc = 1, netsim.UniversityLocation(fmt.Sprintf("uni-%d", u))
	default:
		usr.profile, usr.loc = 2, netsim.CompanyLocation(fmt.Sprintf("corp-%d", u))
	}
	usr.region = Regions[rng.Intn(len(Regions))]
	names := make([]string, 0, len(usr.loc.CloudFactor))
	for k := range usr.loc.CloudFactor {
		names = append(names, k)
	}
	sort.Strings(names)
	factors := make(map[string]float64, len(names))
	for _, k := range names {
		factors[k] = usr.loc.CloudFactor[k] * regionFactor[usr.region] * (0.7 + 0.6*rng.Float64())
	}
	usr.loc.CloudFactor = factors
	return usr, rng
}

// sample is one completed file upload.
type sample struct {
	bucket  workload.SizeBucket
	profile int // index into BenchProfiles
	region  string
	day     int
	bytes   int64   // nominal content bytes
	latency float64 // seconds until available
	// mbps is the nominal upload throughput (content bits over the
	// sync's available time).
	mbps float64
}

// totals accumulates a user's non-sample counts.
type totals struct {
	apiCalls, apiFails int64
	opFailed           int
	// Run only: the user's metadata traffic with Delta-sync, and what a
	// full-image design would have used for the same commits.
	deltaBytes, fullBytes int64
}

// collect simulates every user on `workers` goroutines and returns
// the samples and totals in user order, so float summation order —
// and the report bytes — never depend on scheduling.
func collect(users, workers int, simulate func(u int) ([]sample, totals, error)) ([]sample, totals, error) {
	perUser := make([][]sample, users)
	perUserTotals := make([]totals, users)
	errs := make([]error, users)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				perUser[u], perUserTotals[u], errs[u] = simulate(u)
			}
		}()
	}
	for u := 0; u < users; u++ {
		next <- u
	}
	close(next)
	wg.Wait()

	var samples []sample
	var tot totals
	for u := 0; u < users; u++ {
		if errs[u] != nil {
			return nil, totals{}, fmt.Errorf("trial: user %d: %w", u, errs[u])
		}
		samples = append(samples, perUser[u]...)
		tot.apiCalls += perUserTotals[u].apiCalls
		tot.apiFails += perUserTotals[u].apiFails
		tot.opFailed += perUserTotals[u].opFailed
		tot.deltaBytes += perUserTotals[u].deltaBytes
		tot.fullBytes += perUserTotals[u].fullBytes
	}
	return samples, tot, nil
}

// Result carries the trial's aggregate outcomes.
type Result struct {
	Users      int
	Files      int
	Bytes      int64 // nominal content bytes uploaded
	APICalls   int64
	APIFails   int64
	OpOK       int
	OpFailed   int
	DeltaBytes int64 // metadata traffic with Delta-sync
	FullBytes  int64 // metadata traffic a full-image design would use
	samples    []sample
}

// APISuccessRate returns the Web-API request success rate.
func (r *Result) APISuccessRate() float64 {
	if r.APICalls == 0 {
		return 1
	}
	return 1 - float64(r.APIFails)/float64(r.APICalls)
}

// OpSuccessRate returns the file-operation success rate.
func (r *Result) OpSuccessRate() float64 {
	total := r.OpOK + r.OpFailed
	if total == 0 {
		return 1
	}
	return float64(r.OpOK) / float64(total)
}

// Run simulates the whole trial with real clients: opts.Users users
// uploading opts.Files files each. One user at a time: a user's world
// clock steps only while every goroutine of the process is parked, so
// concurrent users would only take turns at each other's steps.
func Run(opts experiments.Opts) (*Result, error) {
	samples, tot, err := collect(opts.Users, 1, func(u int) ([]sample, totals, error) { return runUser(opts, u) })
	if err != nil {
		return nil, err
	}
	res := &Result{
		Users: opts.Users, Files: len(samples), OpOK: len(samples), OpFailed: tot.opFailed,
		APICalls: tot.apiCalls, APIFails: tot.apiFails,
		DeltaBytes: tot.deltaBytes, FullBytes: tot.fullBytes, samples: samples,
	}
	for _, s := range samples {
		res.Bytes += s.bytes
	}
	return res, nil
}

// runUser runs user u's week on a world of its own.
func runUser(opts experiments.Opts, u int) ([]sample, totals, error) {
	usr, rng := newUser(opts.Seed, u)
	c := experiments.NewCluster(opts.Seed*1000 + int64(u))
	d, err := c.NewDevice(usr.loc, fmt.Sprintf("user-%d", u))
	if err != nil {
		return nil, totals{}, err
	}
	var samples []sample
	var tot totals
	files := workload.TrialFiles(opts.Seed*7919+int64(u), opts.Files)
	for i, f := range files {
		if err := d.Folder.WriteFile(f.Name, f.Data[:c.Size(len(f.Data))], c.Clock.Now()); err != nil {
			return nil, totals{}, err
		}
		rep, err := d.Client.SyncOnce(context.Background())
		if err != nil {
			// The file stays pending; a later sync (next file's
			// pass) will retry it, as UniDrive's loop does.
			tot.opFailed++
			continue
		}
		nominal := int64(len(f.Data))
		samples = append(samples, sample{
			bucket: workload.BucketOf(len(f.Data)), profile: usr.profile, region: usr.region,
			day:   i * 7 / len(files), // spread over the week
			bytes: nominal, latency: rep.AvailableDuration.Seconds(),
			mbps: experiments.Mbps(nominal, rep.AvailableDuration),
		})
		// A little think time between uploads.
		c.Clock.Sleep(time.Duration(30+rng.Intn(90)) * time.Second)
	}

	for _, r := range d.Recorders {
		tot.apiCalls += int64(r.Counts().Total())
		tot.apiFails += int64(r.FailureCounts().Total())
	}
	// Metadata traffic with and without Delta-sync, from the actual
	// uploads: base+delta+version uploads vs image size per commit.
	_, tot.deltaBytes = d.Traffic(".unidrive/meta")
	if enc, err := d.Client.Image().Encode(); err == nil {
		// A full-image design uploads the (growing) image to all five
		// clouds on every commit; approximate with half the final
		// size times this user's commits times clouds.
		tot.fullBytes = int64(len(enc)) / 2 * int64(len(samples)) * 5
	}
	return samples, tot, nil
}

// Experiments are the trial's rows of the experiment table (see
// experiments.All); cmd/unibench and bench_test.go append them.
var Experiments = []experiments.Experiment{{
	Name: "trial", Aliases: []string{"fig15", "fig16"},
	Sizes: experiments.Sizes{
		Paper: experiments.Opts{Users: 272, Files: 10},
		Quick: experiments.Opts{Users: 32, Files: 6},
		Mini:  experiments.Opts{Users: 6, Files: 4},
	},
	Run: func(opts experiments.Opts) []*experiments.Table {
		res, err := Run(opts)
		if err != nil {
			t := &experiments.Table{Title: "Trial (paper §7.3)"}
			t.AddNote("setup failed: %v", err)
			return []*experiments.Table{t}
		}
		return []*experiments.Table{fig15Throughput(res), fig16Daily(res), deploymentStats(res)}
	},
}}

// meanMbps is the mean throughput of the samples matching the filter;
// ok is false when there are none.
func meanMbps(samples []sample, match func(sample) bool) (mean float64, ok bool) {
	g := group("", samples, match)
	return g.MeanMbps, g.Count > 0
}

// cell renders a meanMbps result as a table cell.
func cell(mean float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.2f", mean)
}

// fig15Throughput builds the Figure 15 table: average upload
// throughput by file-size bucket and region.
func fig15Throughput(res *Result) *experiments.Table {
	t := &experiments.Table{
		Title:   "Fig 15: trial avg upload throughput [Mbit/s] by size bucket and region",
		Headers: append([]string{"bucket"}, Regions...),
	}
	for _, b := range workload.Buckets() {
		row := []string{b.String()}
		for _, region := range Regions {
			row = append(row, cell(meanMbps(res.samples, func(s sample) bool { return s.bucket == b && s.region == region })))
		}
		t.AddRow(row...)
	}
	// Shape check: larger buckets faster.
	of := func(b workload.SizeBucket) float64 {
		m, _ := meanMbps(res.samples, func(s sample) bool { return s.bucket == b })
		return m
	}
	if of(workload.BucketLarge) > of(workload.BucketTiny) {
		t.AddNote("larger files achieve higher throughput (paper: same; API latency dominates small files)")
	}
	return t
}

// fig16Daily builds the Figure 16 table: daily average upload
// throughput of medium files (100 KB – 1 MB) per region over the
// week.
func fig16Daily(res *Result) *experiments.Table {
	t := &experiments.Table{
		Title:   "Fig 16: trial daily avg upload throughput [Mbit/s], medium files (100KB-1MB)",
		Headers: append([]string{"day"}, Regions...),
	}
	var allDaily []float64
	for day := 0; day < 7; day++ {
		row := []string{fmt.Sprintf("%d", day+1)}
		for _, region := range Regions {
			m, ok := meanMbps(res.samples, func(s sample) bool {
				return s.day == day && s.region == region && s.bucket == workload.BucketMedium
			})
			if ok {
				allDaily = append(allDaily, m)
			}
			row = append(row, cell(m, ok))
		}
		t.AddRow(row...)
	}
	if len(allDaily) > 1 && stats.Min(allDaily) > 0 {
		t.AddNote("daily spread (max/min across days and regions): %.1fx — consistent experience over time",
			stats.Max(allDaily)/stats.Min(allDaily))
	}
	return t
}

// deploymentStats builds the §7.3 deployment-statistics table.
func deploymentStats(res *Result) *experiments.Table {
	t := &experiments.Table{
		Title:   "Trial deployment statistics (paper §7.3)",
		Headers: []string{"metric", "value", "paper"},
	}
	t.AddRow("users", fmt.Sprintf("%d", res.Users), "272")
	t.AddRow("files uploaded", fmt.Sprintf("%d", res.Files), "96,982")
	t.AddRow("content uploaded", fmt.Sprintf("%.2f GB (nominal)", float64(res.Bytes)/(1<<30)), ">500 GB")
	t.AddRow("Web API success rate", fmt.Sprintf("%.1f%%", res.APISuccessRate()*100), "82.5%")
	t.AddRow("file operation success rate", fmt.Sprintf("%.1f%%", res.OpSuccessRate()*100), "98.4%")
	if res.DeltaBytes > 0 && res.FullBytes > res.DeltaBytes {
		t.AddRow("metadata traffic", fmt.Sprintf("%.1f MB (vs %.1f MB without Delta-sync)",
			float64(res.DeltaBytes)/(1<<20), float64(res.FullBytes)/(1<<20)), "141 MB vs 3,955 MB")
	}
	if res.OpSuccessRate() > res.APISuccessRate() {
		t.AddNote("operations succeed far more often than individual API calls — the multi-cloud masks request failures")
	}
	return t
}
