package trial

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"unidrive/internal/workload"
)

// TestBenchDeterministic: the published BENCH_trial.json is a
// regression fixture, so the report must be byte-identical across
// runs AND across worker counts — parallel scheduling must never
// reach the numbers.
func TestBenchDeterministic(t *testing.T) {
	a := RunBench(BenchOpts{Seed: 7, Users: 1500, Workers: 1})
	b := RunBench(BenchOpts{Seed: 7, Users: 1500, Workers: 8})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("reports differ between 1 and 8 workers")
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("report JSON differs between runs")
	}
	// A different seed must actually move the numbers.
	c := RunBench(BenchOpts{Seed: 8, Users: 1500, Workers: 4})
	if reflect.DeepEqual(a.Overall, c.Overall) {
		t.Fatal("seed 7 and seed 8 produced identical aggregates")
	}
}

// TestBenchUserPurity: simulateUser is a pure function of (opts, u),
// which is what makes the fan-out order irrelevant.
func TestBenchUserPurity(t *testing.T) {
	opts := BenchOpts{Seed: 11, Users: 10, FilesPerUser: 5}
	opts.fill()
	s1, t1, _ := simulateUser(opts, 3)
	s2, t2, _ := simulateUser(opts, 3)
	if !reflect.DeepEqual(s1, s2) || t1 != t2 {
		t.Fatal("simulateUser is not deterministic for a fixed user index")
	}
	s3, _, _ := simulateUser(opts, 4)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("adjacent users drew identical uploads — seed streams overlap")
	}
}

// TestBenchPercentileFixture pins the report math against
// hand-computed values: latencies 1..100s under linear-interpolation
// percentiles give p50=50.5, p95=95.05, p99=99.01.
func TestBenchPercentileFixture(t *testing.T) {
	var samples []sample
	for i := 1; i <= 100; i++ {
		samples = append(samples, sample{
			bucket:  workload.BucketTiny,
			profile: 0,
			bytes:   1000,
			latency: float64(i),
			mbps:    2,
		})
	}
	g := group("fix", samples, nil)
	if g.Count != 100 || g.Bytes != 100_000 {
		t.Fatalf("count=%d bytes=%d, want 100 / 100000", g.Count, g.Bytes)
	}
	if g.MeanMbps != 2 {
		t.Fatalf("meanMbps = %v, want 2", g.MeanMbps)
	}
	if g.P50Sec != 50.5 || g.P95Sec != 95.05 || g.P99Sec != 99.01 {
		t.Fatalf("percentiles = %v/%v/%v, want 50.5/95.05/99.01", g.P50Sec, g.P95Sec, g.P99Sec)
	}
	// Empty group: all zeros, no NaNs.
	if e := group("none", samples, func(sample) bool { return false }); e.Count != 0 || e.P99Sec != 0 {
		t.Fatalf("empty group not zero: %+v", e)
	}
}

// TestBenchSmoke500 runs a 500-user population end to end and checks
// the report's qualitative shape — the properties the paper's Figure
// 15 and §7.3 establish.
func TestBenchSmoke500(t *testing.T) {
	rep := RunBench(BenchOpts{Seed: 3, Users: 500})
	if rep.Files == 0 || rep.Overall.Count != rep.Files {
		t.Fatalf("files=%d overall.count=%d", rep.Files, rep.Overall.Count)
	}
	if rep.Bytes == 0 || rep.APICalls == 0 {
		t.Fatal("no traffic recorded")
	}
	if len(rep.Buckets) != 4 || len(rep.Profiles) != 3 || len(rep.Cells) != 12 {
		t.Fatalf("group shapes: %d buckets, %d profiles, %d cells",
			len(rep.Buckets), len(rep.Profiles), len(rep.Cells))
	}
	for _, g := range append(append(append([]BenchGroup{rep.Overall}, rep.Buckets...), rep.Profiles...), rep.Cells...) {
		if g.Count == 0 {
			continue
		}
		if g.P50Sec <= 0 || g.P50Sec > g.P95Sec || g.P95Sec > g.P99Sec {
			t.Errorf("group %s: percentile order broken: %v/%v/%v", g.Key, g.P50Sec, g.P95Sec, g.P99Sec)
		}
		if g.MeanMbps <= 0 {
			t.Errorf("group %s: non-positive throughput %v", g.Key, g.MeanMbps)
		}
	}
	for _, g := range rep.Buckets {
		if g.Count == 0 {
			t.Errorf("bucket %s drew no files in 5000 uploads", g.Key)
		}
	}
	for _, g := range rep.Profiles {
		if g.Count == 0 {
			t.Errorf("profile %s drew no users in 500", g.Key)
		}
	}
	// Paper Fig 15: larger files achieve higher throughput (API setup
	// latency dominates small files).
	if rep.Buckets[0].MeanMbps >= rep.Buckets[2].MeanMbps {
		t.Errorf("tiny files (%v Mbps) not slower than 1-10MB files (%v Mbps)",
			rep.Buckets[0].MeanMbps, rep.Buckets[2].MeanMbps)
	}
	// Paper §7.3: operations succeed far more often than individual
	// API requests (the multi-cloud masks request failures).
	if rep.APISuccessRate >= 1 || rep.APISuccessRate <= 0.5 {
		t.Errorf("API success rate %v out of the plausible band", rep.APISuccessRate)
	}
	if rep.OpSuccessRate < rep.APISuccessRate {
		t.Errorf("op success %v below API success %v", rep.OpSuccessRate, rep.APISuccessRate)
	}
}

// TestBenchGolden ties RunBench to the published BENCH_trial.json: the
// 1000-user report at seed 1, recorded before Run and RunBench came to
// share one population draw and one aggregation, must not move — so the
// 100k-user snapshot (same code, same seed) need not be regenerated.
func TestBenchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/bench_seed1_users1000.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(RunBench(BenchOpts{Seed: 1, Users: 1000}), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Fatalf("RunBench(seed 1, 1000 users) moved:\n%s", got)
	}
}

// TestWriteTrialBenchSnapshot regenerates BENCH_trial.json at the
// repo root from a 100k-user run, verifying determinism on the way
// (the run is repeated and must agree exactly). Gated behind
// UNIDRIVE_WRITE_BENCH=1 so normal test runs stay fast:
//
//	UNIDRIVE_WRITE_BENCH=1 go test -run TestWriteTrialBenchSnapshot -timeout 30m ./internal/trial/
func TestWriteTrialBenchSnapshot(t *testing.T) {
	if os.Getenv("UNIDRIVE_WRITE_BENCH") != "1" {
		t.Skip("set UNIDRIVE_WRITE_BENCH=1 to regenerate BENCH_trial.json")
	}
	opts := BenchOpts{Seed: 1, Users: 100_000, FilesPerUser: 10}
	start := time.Now()
	rep := RunBench(opts)
	elapsed := time.Since(start)
	again := RunBench(opts)
	if !reflect.DeepEqual(rep, again) {
		t.Fatal("two 100k runs with the same seed disagree — report not deterministic")
	}

	doc := map[string]any{
		"date": time.Now().Format("2006-01-02"),
		"host": map[string]any{
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"cpus":   runtime.NumCPU(),
			"note":   "analytic population harness over the netsim fluctuation model (internal/trial/bench.go); latency = availability time (K blocks per segment committed)",
		},
		"commands": []string{
			"make bench-trial",
			"UNIDRIVE_WRITE_BENCH=1 go test -run TestWriteTrialBenchSnapshot -timeout 30m ./internal/trial/",
		},
		"determinism": map[string]any{
			"verified": true,
			"note":     "the 100k-user run was executed twice with the same seed and produced identical reports; worker count never affects the output",
		},
		"runSeconds": round4(elapsed.Seconds()),
		"report":     rep,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_trial.json", append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_trial.json written: %d users, %d files, %.1fs", rep.Users, rep.Files, elapsed.Seconds())
}
