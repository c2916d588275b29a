package trial

import (
	"reflect"
	"testing"

	"unidrive/internal/experiments"
	"unidrive/internal/workload"
)

// miniOpts is the trial row's miniature size.
func miniOpts(seed int64) experiments.Opts {
	o := Experiments[0].Sizes.Mini
	o.Seed = seed
	return o
}

func TestTrialSmallRun(t *testing.T) {
	res, err := Run(miniOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Users != 6 {
		t.Fatalf("Users = %d", res.Users)
	}
	if res.Files == 0 || res.OpOK == 0 {
		t.Fatalf("no successful uploads: %+v", res)
	}
	if res.APICalls == 0 {
		t.Fatal("no API calls recorded")
	}
	if rate := res.OpSuccessRate(); rate < 0.5 {
		t.Fatalf("operation success rate %.2f too low", rate)
	}
	// Operation-level success must not trail API-level success: the
	// multi-cloud masks request failures (paper: 98.4%% vs 82.5%%).
	if res.OpSuccessRate() < res.APISuccessRate()-0.05 {
		t.Fatalf("op success %.2f below API success %.2f", res.OpSuccessRate(), res.APISuccessRate())
	}
	if len(res.samples) == 0 {
		t.Fatal("no throughput samples")
	}
	for _, tb := range []interface{ String() string }{
		fig15Throughput(res), fig16Daily(res), deploymentStats(res),
	} {
		if tb.String() == "" {
			t.Fatal("empty table")
		}
	}
	t.Log("\n" + fig15Throughput(res).String())
	t.Log("\n" + deploymentStats(res).String())
}

func TestRegionsCovered(t *testing.T) {
	if len(Regions) != 4 {
		t.Fatal("four regions expected")
	}
	for _, r := range Regions {
		if regionFactor[r] == 0 {
			t.Fatalf("region %s has no factor", r)
		}
	}
}

func TestBucketsUsed(t *testing.T) {
	if len(workload.Buckets()) != 4 {
		t.Fatal("bucket set changed")
	}
}

// TestPopulationReproducible: the population drawn for one seed —
// profile, region and every per-cloud factor — is the same on every
// call, and it is the one population both harnesses run. (Drawing the
// per-cloud jitter while ranging over the CloudFactor map, as Run once
// did, fails this within a few dozen users.)
func TestPopulationReproducible(t *testing.T) {
	profiles := map[int]bool{}
	for u := 0; u < 200; u++ {
		a, ra := newUser(5, u)
		b, rb := newUser(5, u)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("user %d drawn twice differs:\n%+v\n%+v", u, a, b)
		}
		if ra.Float64() != rb.Float64() {
			t.Fatalf("user %d: the rest of the stream differs", u)
		}
		if len(a.loc.CloudFactor) != 5 || regionFactor[a.region] == 0 {
			t.Fatalf("user %d: malformed draw %+v", u, a)
		}
		profiles[a.profile] = true
	}
	if len(profiles) != len(BenchProfiles) {
		t.Fatalf("200 users drew only profiles %v", profiles)
	}
	a, _ := newUser(5, 0)
	if b, _ := newUser(6, 0); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 5 and 6 drew the same user 0")
	}
}

// TestFullBytesIsPerUser: the "without Delta-sync" traffic charges
// each user for its own commits. It used to multiply by the running
// commit total of all users so far and divide by the population size,
// so the same user contributed more the later it ran.
func TestFullBytesIsPerUser(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := miniOpts(1)
	opts.Users = 2
	s0, first, err := runUser(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, alone, err := runUser(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	both, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if both.Files != len(s0)+len(s1) {
		t.Skipf("an upload failed on one of the draws (%d vs %d+%d commits); nothing to compare", both.Files, len(s0), len(s1))
	}
	if alone.fullBytes <= 0 || first.fullBytes <= 0 {
		t.Fatalf("no full-image traffic recorded: %d, %d", first.fullBytes, alone.fullBytes)
	}
	// Placements differ a little from run to run on the scaled clock,
	// and with them the encoded image by a few bytes.
	got := both.FullBytes - first.fullBytes
	if got < alone.fullBytes*9/10 || got > alone.fullBytes*11/10 {
		t.Fatalf("user 1 contributes %d bytes after user 0 but %d alone", got, alone.fullBytes)
	}
}
