package sched

import (
	"math"
	"testing"
	"time"
)

// block is a payload well above MinBandwidthSample: a bandwidth sample.
const block = 1_300_000

func estimate(t *testing.T, p *Prober, cloud string, dir Direction, size int64) time.Duration {
	t.Helper()
	d, ok := p.Estimate(cloud, dir, size)
	if !ok {
		t.Fatalf("no estimate for %s %s", cloud, dir)
	}
	return d
}

func within(got, want time.Duration, frac float64) bool {
	return math.Abs(float64(got-want)) <= frac*float64(want)
}

func TestProberObserveAndThroughput(t *testing.T) {
	p := NewProber(0)
	if _, ok := p.Estimate("c1", Up, block); ok {
		t.Fatal("unprobed cloud must have no estimate")
	}
	p.Observe("c1", Up, 1_000_000, time.Second)
	// 1 MB/s and no latency sample yet: 2 MB take two seconds.
	if got := estimate(t, p, "c1", Up, 2_000_000); got != 2*time.Second {
		t.Fatalf("Estimate = %v, want 2s", got)
	}
	// Directions are independent.
	if _, ok := p.Estimate("c1", Down, block); ok {
		t.Fatal("download channel polluted by upload sample")
	}
}

func TestProberIgnoresDegenerateSamples(t *testing.T) {
	p := NewProber(0)
	p.Observe("c1", Up, 100, 0)
	p.Observe("c1", Up, -5, time.Second)
	if _, ok := p.Estimate("c1", Up, 0); ok {
		t.Fatal("degenerate samples were recorded")
	}
}

func TestProberEWMATracksRecent(t *testing.T) {
	p := NewProber(0.5)
	for i := 0; i < 10; i++ {
		p.Observe("c1", Up, block, 10*time.Second)
	}
	for i := 0; i < 10; i++ {
		p.Observe("c1", Up, block, 100*time.Millisecond)
	}
	if got := estimate(t, p, "c1", Up, block); got > 200*time.Millisecond {
		t.Fatalf("estimate %v too sticky; recent samples must dominate", got)
	}
}

// TestProberSeparatesLatencyFromBandwidth is the regression for the
// single size/duration EWMA: 33-byte version stamps interleaved with
// block transfers must not drag the block estimate to KB/s, nor the
// blocks inflate the stamp estimate.
func TestProberSeparatesLatencyFromBandwidth(t *testing.T) {
	const stamp = 33
	latency := 20 * time.Millisecond
	// cloud -> bytes/second per connection.
	rates := map[string]float64{"wide": 25e6, "mid": 10e6, "narrow": 3e6}
	// "narrow" has the lowest latency, "wide" the highest: the two
	// orderings disagree.
	latencies := map[string]time.Duration{"narrow": 5 * time.Millisecond, "mid": 10 * time.Millisecond, "wide": latency}
	truth := func(c string, size int64) time.Duration {
		return latencies[c] + time.Duration(float64(size)/rates[c]*float64(time.Second))
	}
	p := NewProber(0)
	for round := 0; round < 6; round++ {
		for c := range rates {
			for i := 0; i < 5; i++ {
				p.Observe(c, Down, stamp, truth(c, stamp))
			}
			p.Observe(c, Down, block, truth(c, block))
		}
	}
	// End on stamps, as every apply does before its first block.
	for c := range rates {
		for i := 0; i < 5; i++ {
			p.Observe(c, Down, stamp, truth(c, stamp))
		}
	}
	for c := range rates {
		for _, size := range []int64{stamp, block} {
			if got, want := estimate(t, p, c, Down, size), truth(c, size); !within(got, want, 0.15) {
				t.Errorf("%s: Estimate(%d B) = %v, truth %v", c, size, got, want)
			}
		}
	}
	clouds := []string{"mid", "narrow", "wide"}
	if got := p.Rank(clouds, Down, block); got[0] != "wide" || got[1] != "mid" || got[2] != "narrow" {
		t.Errorf("block-sized rank = %v, want bandwidth order", got)
	}
	if got := p.Rank(clouds, Down, stamp); got[0] != "narrow" || got[1] != "mid" || got[2] != "wide" {
		t.Errorf("stamp-sized rank = %v, want latency order", got)
	}
}

// TestProberLatencyOnlyIsAnEstimate: control traffic alone must yield
// an estimate and a ranking, not leave the cloud "unprobed" — and the
// estimate must not flatter a cloud whose bandwidth nobody has seen.
func TestProberLatencyOnlyIsAnEstimate(t *testing.T) {
	p := NewProber(0)
	p.Observe("near", Down, 33, 5*time.Millisecond)
	p.Observe("far", Down, 0, 20*time.Millisecond)
	if got := estimate(t, p, "far", Down, 0); got != 20*time.Millisecond {
		t.Fatalf("latency-only estimate for no payload = %v, want the latency", got)
	}
	// One initial window per round trip until measured: 16 windows take
	// 16 more round trips.
	if got, want := estimate(t, p, "far", Down, 16*unmeasuredWindow), 17*20*time.Millisecond; !within(got, want, 0.001) {
		t.Fatalf("latency-only estimate for 16 windows = %v, want %v", got, want)
	}
	if got := p.Rank([]string{"far", "near"}, Down, block); got[0] != "near" {
		t.Fatalf("rank = %v, want latency order before any bandwidth sample", got)
	}
	// A measured cloud is not outranked by an unmeasured one just
	// because the latter's transfer time is unknown.
	p.Observe("measured", Down, 33, 10*time.Millisecond)
	p.Observe("measured", Down, block, 10*time.Millisecond+block*time.Second/10_000_000) // 10 MB/s
	if got := p.Rank([]string{"far", "measured"}, Down, block); got[0] != "measured" {
		t.Fatalf("rank = %v: 20 ms away and unmeasured must not beat 10 ms away at 10 MB/s", got)
	}
}

func TestProberFailureLowersRank(t *testing.T) {
	p := NewProber(0)
	p.Observe("fast", Up, block, 1500*time.Millisecond)
	p.Observe("flaky", Up, block, time.Second)
	before := estimate(t, p, "flaky", Up, block)
	for i := 0; i < 5; i++ {
		p.ObserveFailure("flaky", Up)
	}
	if after := estimate(t, p, "flaky", Up, block); after <= before {
		t.Fatalf("estimate %v -> %v; a failure must cost", before, after)
	}
	ranked := p.Rank([]string{"fast", "flaky"}, Up, block)
	if ranked[0] != "fast" {
		t.Fatalf("rank = %v; failures must sink a cloud", ranked)
	}
	// A cloud that has only ever failed is estimated, not unprobed.
	p.ObserveFailure("dead", Up)
	if ranked := p.Rank([]string{"dead", "fast"}, Up, 0); ranked[0] != "fast" {
		t.Fatalf("rank = %v; a cloud known only by failures must not be probed first", ranked)
	}
	// Successes win the rank back.
	for i := 0; i < 20; i++ {
		p.Observe("flaky", Up, block, time.Second)
	}
	if ranked := p.Rank([]string{"fast", "flaky"}, Up, block); ranked[0] != "flaky" {
		t.Fatalf("rank = %v; the penalty must decay with successes", ranked)
	}
}

func TestProberRankUnprobedFirst(t *testing.T) {
	p := NewProber(0)
	p.Observe("known", Up, 1_000_000, time.Second)
	ranked := p.Rank([]string{"known", "mystery"}, Up, block)
	if ranked[0] != "mystery" {
		t.Fatalf("rank = %v; unprobed clouds must be probed first", ranked)
	}
}

func TestProberRankOrdersBySpeed(t *testing.T) {
	p := NewProber(0)
	p.Observe("slow", Down, block, 9*time.Second)
	p.Observe("fast", Down, block, time.Second)
	p.Observe("mid", Down, block, 5*time.Second)
	ranked := p.Rank([]string{"slow", "mid", "fast"}, Down, block)
	want := []string{"fast", "mid", "slow"}
	for i := range want {
		if ranked[i] != want[i] {
			t.Fatalf("rank = %v, want %v", ranked, want)
		}
	}
}

func TestProberRankDeterministicTies(t *testing.T) {
	p := NewProber(0)
	a := p.Rank([]string{"b", "a", "c"}, Up, block)
	b := p.Rank([]string{"c", "b", "a"}, Up, block)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tie-break not deterministic: %v vs %v", a, b)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if Up.String() != "up" || Down.String() != "down" {
		t.Fatal("direction names wrong")
	}
}

// TestAdmitDownload is the decision table of the download
// source-selection rule.
func TestAdmitDownload(t *testing.T) {
	p := NewProber(0)
	// Per connection: fast moves a block in 50 ms, slow in 400 ms.
	p.Observe("fast", Down, block, 50*time.Millisecond)
	p.Observe("fast2", Down, block, 50*time.Millisecond)
	p.Observe("slow", Down, block, 400*time.Millisecond)
	p.Observe("slower", Down, block, 401*time.Millisecond)
	const conns = 5
	// Ten 50 ms connections drain a block every 5 ms: a batch of N
	// unassigned blocks clears the fast clouds in N×5 ms + 50 ms.
	shared := func() *DownloadPlan {
		plan, err := NewDownloadPlan(3, map[int][]string{
			0: {"fast"}, 1: {"fast2"}, 2: {"fast"}, 3: {"slow"}, 4: {"fresh"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	sole := func() *DownloadPlan {
		plan, err := NewDownloadPlan(3, map[int][]string{0: {"fast"}, 1: {"fast2"}, 2: {"slow"}})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	cases := []struct {
		name       string
		plan       *DownloadPlan
		cloud      string
		others     []string
		unassigned int64
		want       bool
	}{
		{"large batch admits the slow cloud", shared(), "slow", []string{"fast", "fast2"}, 100 * block, true},
		{"just above the bar (drain + one fast block = 400 ms at 70)", shared(), "slow", []string{"fast", "fast2"}, 71 * block, true},
		{"just below the bar", shared(), "slow", []string{"fast", "fast2"}, 69 * block, false},
		{"end-game refuses the slow cloud", shared(), "slow", []string{"fast", "fast2"}, 3 * block, false},
		{"the fastest holder is always admitted", shared(), "fast", []string{"fast2", "slow"}, block, true},
		{"slower holders set no bar", shared(), "slow", []string{"slower"}, block, true},
		{"slower holders do not help drain (counted, 71 would fall short)", shared(), "slow", []string{"fast", "fast2", "slower"}, 71 * block, true},
		{"sole holder of the K-th block, even in the end-game", sole(), "slow", []string{"fast", "fast2"}, block, true},
		{"no estimate at all: its first block is the probe", shared(), "fresh", []string{"fast", "fast2"}, block, true},
		{"nobody else holds work", shared(), "slow", nil, block, true},
		{"unestimated others set no bar", shared(), "slow", []string{"fresh"}, block, true},
	}
	for _, c := range cases {
		if got := AdmitDownload(p, c.plan, c.cloud, c.others, conns, block, c.unassigned); got != c.want {
			t.Errorf("%s: admitted = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDownloadPlanRequiresAndUnassigned(t *testing.T) {
	plan, err := NewDownloadPlan(2, map[int][]string{0: {"a"}, 1: {"b"}, 2: {"c", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Unassigned() != 2 {
		t.Fatalf("Unassigned = %d, want 2", plan.Unassigned())
	}
	for _, c := range []string{"a", "b", "c"} {
		if plan.Requires(c) {
			t.Fatalf("three holders for K=2: %s must not be required", c)
		}
	}
	plan.MarkDead("b")
	// Without b, blocks 0 and 2 are left: a holds both, so c is
	// dispensable and a is not.
	if !plan.Requires("a") || plan.Requires("c") {
		t.Fatalf("Requires(a)=%v Requires(c)=%v, want true/false", plan.Requires("a"), plan.Requires("c"))
	}
	if _, ok := plan.NextBlock("a"); !ok {
		t.Fatal("a has work")
	}
	if plan.Unassigned() != 1 {
		t.Fatalf("Unassigned = %d after one hand-out, want 1", plan.Unassigned())
	}
}
