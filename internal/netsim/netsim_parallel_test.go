package netsim

import (
	"context"
	"sync"
	"testing"
	"time"

	"unidrive/internal/vclock"
)

// flakyProfile is a fast cloud with a high transient-failure rate, so
// outcome sequences carry real signal from the RNG stream.
func flakyProfile(name string) CloudProfile {
	return CloudProfile{
		Name:   name,
		UpMbps: 400, DownMbps: 400, PerConnMbps: 400,
		BaseFailure:  0.20,
		FailurePerMB: 0.5,
		Sigma:        0.3,
	}
}

// driveOutcomes issues reqs sequential requests from the host and
// records which succeeded. With DegradedProb=0 the failure
// probability is epoch-independent, so the outcome sequence depends
// only on the host's own RNG stream — not on simulated time or on
// what any other host is doing.
func driveOutcomes(t *testing.T, h *Host, reqs int) []bool {
	t.Helper()
	out := make([]bool, reqs)
	for i := range out {
		out[i] = h.Do(context.Background(), "flaky", Upload, 256*1024) == nil
	}
	return out
}

// TestConcurrentHostsDeterministic is the regression test for the
// shared-RNG bug: the environment used to feed every host's failure
// and jitter draws from one shared stream, so which host consumed
// which draw depended on goroutine interleaving, and any test driving
// two profiles in parallel got different outcomes run to run. Hosts
// now own seeded per-host streams; each host driven concurrently must
// reproduce exactly the outcome sequence it produces when driven
// alone in a fresh environment with the same seed.
func TestConcurrentHostsDeterministic(t *testing.T) {
	t.Parallel()
	const seed = 99
	const reqs = 150

	mkEnv := func() *Env {
		cfg := cleanConfig(seed) // no degradation episodes: epoch-free failures
		return NewEnv(vclock.NewWorld(time.Unix(0, 0)), cfg, []CloudProfile{flakyProfile("flaky")})
	}
	// Hosts are seeded by (env seed, location, attach order), so the
	// solo baselines attach both hosts in the same order as the
	// concurrent run and drive only one.
	locA := ResidentialLocation("home")
	locB := UniversityLocation("campus")

	soloEnvA := mkEnv()
	hostA := soloEnvA.NewHost(locA)
	soloEnvA.NewHost(locB)
	wantA := driveOutcomes(t, hostA, reqs)

	soloEnvB := mkEnv()
	soloEnvB.NewHost(locA)
	wantB := driveOutcomes(t, soloEnvB.NewHost(locB), reqs)

	// Two profiles driven concurrently over ONE environment; run under
	// -race via the netsim race list.
	env := mkEnv()
	a, b := env.NewHost(locA), env.NewHost(locB)
	var gotA, gotB []bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotA = driveOutcomes(t, a, reqs) }()
	go func() { defer wg.Done(); gotB = driveOutcomes(t, b, reqs) }()
	wg.Wait()

	failures := 0
	for i := 0; i < reqs; i++ {
		if gotA[i] != wantA[i] {
			t.Fatalf("host A request %d: concurrent=%v solo=%v", i, gotA[i], wantA[i])
		}
		if gotB[i] != wantB[i] {
			t.Fatalf("host B request %d: concurrent=%v solo=%v", i, gotB[i], wantB[i])
		}
		if !wantA[i] {
			failures++
		}
		if !wantB[i] {
			failures++
		}
	}
	if failures == 0 || failures == 2*reqs {
		t.Fatalf("degenerate outcome mix (%d/%d failures); test carries no RNG signal", failures, 2*reqs)
	}
}

// TestHostSeedsDiffer guards the per-host seeding: two hosts at the
// same location in one environment must not share a draw stream.
func TestHostSeedsDiffer(t *testing.T) {
	t.Parallel()
	env := NewEnv(vclock.NewWorld(time.Unix(0, 0)), cleanConfig(7), []CloudProfile{flakyProfile("flaky")})
	h1 := env.NewHost(ResidentialLocation("home"))
	h2 := env.NewHost(ResidentialLocation("home"))
	same := true
	for i := 0; i < 64 && same; i++ {
		same = h1.randFloat() == h2.randFloat()
	}
	if same {
		t.Fatal("two hosts at one location share an RNG stream")
	}
}
