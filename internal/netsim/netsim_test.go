package netsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/stats"
	"unidrive/internal/vclock"
)

func testEnv(t *testing.T, seed int64) *Env {
	t.Helper()
	return NewEnv(vclock.NewWorld(time.Unix(0, 0)), DefaultConfig(seed), FiveClouds())
}

// cleanProfile returns a cloud profile with no failures or latency,
// for deterministic timing tests.
func cleanProfile(name string, upMbps float64) CloudProfile {
	return CloudProfile{
		Name:   name,
		UpMbps: upMbps, DownMbps: upMbps, PerConnMbps: upMbps,
		Sigma: 0.0001, // effectively constant
	}
}

func TestDirectionString(t *testing.T) {
	if Upload.String() != "upload" || Download.String() != "download" {
		t.Fatal("Direction.String broken")
	}
	if Direction(9).String() == "" {
		t.Fatal("unknown direction should still print")
	}
}

// cleanConfig disables degradation episodes for deterministic timing.
func cleanConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.DegradedProb = 0
	return cfg
}

func TestDoTransfersAtModeledRate(t *testing.T) {
	// Scale 50: the ~4 simulated seconds are ~80 ms of real time and the
	// upper bound leaves 120 ms of slack — at 5000 the whole transfer
	// was 0.8 ms, inside one scheduler hiccup on a loaded box.
	clk := vclock.NewWorld(time.Unix(0, 0))
	env := NewEnv(clk, cleanConfig(1), []CloudProfile{cleanProfile("c1", 8)})
	h := env.NewHost(loc("here", 1000, 1000, nil, 1))
	const size = 4 << 20 // 4 MB at 8 Mbps = ~4 simulated seconds
	start := clk.Now()
	if err := h.Do(context.Background(), "c1", Upload, size); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now().Sub(start)
	if elapsed < 2*time.Second || elapsed > 10*time.Second {
		t.Fatalf("4MB at 8Mbps took %v simulated; want ~4s", elapsed)
	}
}

func TestDoUnknownCloud(t *testing.T) {
	env := testEnv(t, 1)
	h := env.NewHost(EC2Location("virginia"))
	if err := h.Do(context.Background(), "nosuch", Upload, 10); err == nil {
		t.Fatal("transfer to unknown cloud succeeded")
	}
}

func TestOutageReturnsUnavailable(t *testing.T) {
	env := testEnv(t, 1)
	h := env.NewHost(EC2Location("virginia"))
	env.SetOutage(Dropbox, true)
	err := h.Do(context.Background(), Dropbox, Upload, 1024)
	if !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if env.Available(Dropbox) {
		t.Fatal("Available should report the outage")
	}
	env.SetOutage(Dropbox, false)
	if !env.Available(Dropbox) {
		t.Fatal("outage should clear")
	}
}

func TestBlockedLocationUnreachable(t *testing.T) {
	env := testEnv(t, 1)
	h := env.NewHost(loc("gfw", 50, 50, map[string]float64{Dropbox: 0}, 1))
	err := h.Do(context.Background(), Dropbox, Upload, 10)
	if !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable for blocked cloud", err)
	}
}

func TestContextCancellationStopsTransfer(t *testing.T) {
	clk := vclock.NewWorld(time.Unix(0, 0))
	env := NewEnv(clk, DefaultConfig(1), []CloudProfile{cleanProfile("c1", 0.1)})
	h := env.NewHost(loc("here", 1000, 1000, nil, 1))
	// 64 MB at 0.1 Mbps takes well over an hour; cancel after 10 s.
	ctx, cancel := context.WithCancel(context.Background())
	clk.AfterFunc(10*time.Second, cancel)
	done := make(chan error, 1)
	go func() { done <- h.Do(ctx, "c1", Upload, 64<<20) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled transfer did not stop")
	}
}

func TestCapacitySharingSlowsParallelConns(t *testing.T) {
	clk := vclock.NewWorld(time.Unix(0, 0))
	// Cloud cap 8 Mbps, per-conn also 8: two parallel conns must share.
	env := NewEnv(clk, cleanConfig(1), []CloudProfile{cleanProfile("c1", 8)})
	h := env.NewHost(loc("here", 1000, 1000, nil, 1))
	const size = 2 << 20
	start := clk.Now()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- h.Do(context.Background(), "c1", Upload, size) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := clk.Now().Sub(start)
	// 4 MB total through an 8 Mbps pipe: ~4s; parallel speedup impossible.
	if elapsed < 3*time.Second {
		t.Fatalf("two sharing connections finished in %v; capacity not shared", elapsed)
	}
}

func TestClientLinkLimitsAggregateRate(t *testing.T) {
	clk := vclock.NewWorld(time.Unix(0, 0))
	clouds := []CloudProfile{cleanProfile("c1", 50), cleanProfile("c2", 50)}
	env := NewEnv(clk, cleanConfig(1), clouds)
	h := env.NewHost(loc("narrow", 10, 10, nil, 1)) // 10 Mbps uplink
	const size = 2 << 20
	start := clk.Now()
	errs := make(chan error, 2)
	go func() { errs <- h.Do(context.Background(), "c1", Upload, size) }()
	go func() { errs <- h.Do(context.Background(), "c2", Upload, size) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := clk.Now().Sub(start)
	// 4 MB through a 10 Mbps uplink: ≥ ~3.2s even with two fast clouds.
	if elapsed < 2500*time.Millisecond {
		t.Fatalf("uplink-limited pair finished in %v; client link not enforced", elapsed)
	}
}

func TestFailuresAreSizeDependent(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.DegradedProb = 0 // isolate the size effect
	env := NewEnv(vclock.NewWorld(time.Unix(0, 0)), cfg, []CloudProfile{{
		Name: "c1", UpMbps: 1000, DownMbps: 1000, PerConnMbps: 1000,
		BaseFailure: 0.01, FailurePerMB: 0.02, Sigma: 0.0001,
	}})
	h := env.NewHost(loc("here", 1e6, 1e6, nil, 1))
	count := func(size int64, trials int) int {
		fails := 0
		for i := 0; i < trials; i++ {
			if err := h.Do(context.Background(), "c1", Upload, size); err != nil {
				if !errors.Is(err, cloud.ErrTransient) {
					t.Fatalf("unexpected error class: %v", err)
				}
				fails++
			}
		}
		return fails
	}
	small := count(64*1024, 400)
	large := count(8<<20, 400)
	if large <= small {
		t.Fatalf("failure counts small=%d large=%d; want more failures for larger files", small, large)
	}
}

func TestTempMultiplierDeterministicAndVarying(t *testing.T) {
	env := testEnv(t, 42)
	cp := FiveClouds()[0]
	a := env.sampler.TempMultiplier(cp.Name, Upload, 7)
	b := env.sampler.TempMultiplier(cp.Name, Upload, 7)
	if a != b {
		t.Fatal("multiplier not deterministic for equal epoch")
	}
	// Across epochs the multiplier must actually vary.
	var vals []float64
	for ep := int64(0); ep < 200; ep++ {
		vals = append(vals, env.sampler.TempMultiplier(cp.Name, Upload, ep))
	}
	if stats.Max(vals)/stats.Min(vals) < 3 {
		t.Fatalf("multiplier range too tight: min=%v max=%v", stats.Min(vals), stats.Max(vals))
	}
}

func TestTempMultiplierDiffersAcrossSeeds(t *testing.T) {
	e1 := testEnv(t, 1)
	e2 := testEnv(t, 2)
	cp := FiveClouds()[0]
	same := 0
	for ep := int64(0); ep < 50; ep++ {
		if e1.sampler.TempMultiplier(cp.Name, Upload, ep) == e2.sampler.TempMultiplier(cp.Name, Upload, ep) {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("%d/50 epochs identical across different seeds", same)
	}
}

func TestDegradedCloudAtMostOne(t *testing.T) {
	env := testEnv(t, 3)
	seen := make(map[string]bool)
	for ep := int64(0); ep < 500; ep++ {
		name := env.sampler.DegradedCloud(ep)
		if name != "" {
			seen[name] = true
			if _, ok := env.sampler.Profile(name); !ok {
				t.Fatalf("degraded cloud %q not a known cloud", name)
			}
		}
	}
	if len(seen) < 3 {
		t.Fatalf("degradation episodes cover only %d clouds; rotation broken", len(seen))
	}
}

func TestCloudsSortedAndComplete(t *testing.T) {
	env := testEnv(t, 1)
	names := env.sampler.Clouds()
	if len(names) != 5 {
		t.Fatalf("Clouds() returned %d names, want 5", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Clouds() not sorted")
		}
	}
}

func TestTrafficMetering(t *testing.T) {
	cfg := DefaultConfig(1)
	env := NewEnv(vclock.NewWorld(time.Unix(0, 0)), cfg, []CloudProfile{cleanProfile("c1", 1000)})
	h := env.NewHost(loc("here", 1e6, 1e6, nil, 1))
	if err := h.Do(context.Background(), "c1", Upload, 1000); err != nil {
		t.Fatal(err)
	}
	if err := h.Do(context.Background(), "c1", Download, 2000); err != nil {
		t.Fatal(err)
	}
	up, down, calls := h.Traffic()
	if up != 1000+cfg.RequestOverheadBytes {
		t.Errorf("upload bytes = %d, want %d", up, 1000+cfg.RequestOverheadBytes)
	}
	if down != 2000+cfg.RequestOverheadBytes {
		t.Errorf("download bytes = %d, want %d", down, 2000+cfg.RequestOverheadBytes)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
}

func TestProfileAccessorsPanicOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EC2Location(unknown) did not panic")
		}
	}()
	EC2Location("atlantis")
}

func TestBuiltinProfilesConsistent(t *testing.T) {
	if len(FiveClouds()) != 5 {
		t.Fatal("FiveClouds must return 5 profiles")
	}
	if len(EC2Locations()) != 7 {
		t.Fatal("EC2Locations must return 7 locations (paper §7)")
	}
	if len(PlanetLabLocations()) != 13 {
		t.Fatal("PlanetLabLocations must return 13 locations (paper §3.2)")
	}
	for _, l := range append(EC2Locations(), PlanetLabLocations()...) {
		for name := range l.CloudFactor {
			found := false
			for _, c := range FiveClouds() {
				if c.Name == name {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("location %s references unknown cloud %s", l.Name, name)
			}
		}
	}
	// Spatial rankings must differ across locations ("no always
	// winner", paper §3.2).
	pr := PlanetLabLocation("princeton").CloudFactor
	bj := PlanetLabLocation("beijing").CloudFactor
	if (pr[Dropbox] > pr[OneDrive]) == (bj[Dropbox] > bj[OneDrive]) {
		t.Error("Dropbox/OneDrive ranking should reverse between Princeton and Beijing")
	}
}

func TestTrialLocationProfiles(t *testing.T) {
	for _, l := range []LocationProfile{
		ResidentialLocation("r"), UniversityLocation("u"), CompanyLocation("c"),
	} {
		if l.UplinkMbps <= 0 || l.DownlinkMbps <= 0 {
			t.Errorf("trial location %s has non-positive link rates", l.Name)
		}
	}
}
