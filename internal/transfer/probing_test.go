package transfer

import (
	"context"
	"fmt"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

func estimated(p *sched.Prober, cloudName string, dir sched.Direction) bool {
	_, ok := p.Estimate(cloudName, dir, 0)
	return ok
}

func TestProbingObservesAllTraffic(t *testing.T) {
	prober := sched.NewProber(0)
	store := cloudsim.NewStore("c1", 0)
	p := NewProbing(cloudsim.NewDirect(store), prober, vclock.Real{})
	ctx := context.Background()

	if err := p.Upload(ctx, "meta/version", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if !estimated(prober, "c1", sched.Up) {
		t.Fatal("upload not observed")
	}
	if estimated(prober, "c1", sched.Down) {
		t.Fatal("upload observed as download traffic")
	}
	if _, err := p.Download(ctx, "meta/version"); err != nil {
		t.Fatal(err)
	}
	if !estimated(prober, "c1", sched.Down) {
		t.Fatal("download not observed")
	}
	if p.Name() != "c1" {
		t.Fatal("name not forwarded")
	}
}

// TestProbingListIsALatencySample: a listing's duration must not be
// booked as payload, however many entries come back.
func TestProbingListIsALatencySample(t *testing.T) {
	prober := sched.NewProber(0)
	direct := cloudsim.NewDirect(cloudsim.NewStore("c1", 0))
	ctx := context.Background()
	// 64 B x 2048 entries would have been a 128 KB "transfer".
	for i := 0; i < 2048; i++ {
		if err := direct.Upload(ctx, fmt.Sprintf("dir/f%04d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	p := NewProbing(direct, prober, vclock.Real{})
	if _, err := p.List(ctx, "dir"); err != nil {
		t.Fatal(err)
	}
	latency, ok := prober.Estimate("c1", sched.Down, 0)
	if !ok {
		t.Fatal("list not observed as download-direction latency")
	}
	// No bandwidth sample: the estimate for a payload is still the
	// prober's prior, a fixed number of round trips per byte — not a
	// rate derived from the listing.
	one, _ := prober.Estimate("c1", sched.Down, 1<<20)
	two, _ := prober.Estimate("c1", sched.Down, 2<<20)
	if perMiB := two - one; perMiB < 60*latency || perMiB > 68*latency {
		t.Fatalf("a further MiB is estimated at %v with latency %v, want the unmeasured prior (64 round trips): the list fed the bandwidth term", perMiB, latency)
	}
}

func TestProbingNotFoundIsNotAFailureSignal(t *testing.T) {
	prober := sched.NewProber(0)
	clk := vclock.NewManual(time.Unix(0, 0))
	p := NewProbing(answersIn{cloudsim.NewDirect(cloudsim.NewStore("c1", 0)), clk, 30 * time.Millisecond}, prober, clk)
	if _, err := p.Download(context.Background(), "ghost"); err == nil {
		t.Fatal("expected not-found")
	}
	// A 404 is a healthy, prompt response: a latency sample — not a
	// failure that would sink the cloud in the ranking, and not nothing
	// either, or a cloud that missed a commit would pass for unprobed.
	if got, ok := prober.Estimate("c1", sched.Down, 0); !ok || got != 30*time.Millisecond {
		t.Fatalf("estimate after a NotFound = %v (ok=%v), want its 30 ms round trip and no failure penalty", got, ok)
	}
}

// answersIn makes every download take d on the manual clock.
type answersIn struct {
	cloud.Interface
	clk *vclock.Manual
	d   time.Duration
}

func (a answersIn) Download(ctx context.Context, path string) ([]byte, error) {
	a.clk.Advance(a.d)
	return a.Interface.Download(ctx, path)
}

func TestProbingTransientFailureSinksRanking(t *testing.T) {
	prober := sched.NewProber(0)
	flaky := cloudsim.NewFlaky(cloudsim.NewDirect(cloudsim.NewStore("bad", 0)), 1.0, 1)
	bad := NewProbing(flaky, prober, vclock.Real{})
	good := NewProbing(cloudsim.NewDirect(cloudsim.NewStore("good", 0)), prober, vclock.Real{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		_ = bad.Upload(ctx, "f", []byte("x"))
		_ = good.Upload(ctx, "f", []byte("x"))
	}
	ranked := prober.Rank([]string{"bad", "good"}, sched.Up, 0)
	if ranked[0] != "good" {
		t.Fatalf("rank = %v; failing cloud should sink", ranked)
	}
}

func TestProbingDeleteAndCreateDirPassThrough(t *testing.T) {
	prober := sched.NewProber(0)
	store := cloudsim.NewStore("c1", 0)
	p := NewProbing(cloudsim.NewDirect(store), prober, vclock.Real{})
	ctx := context.Background()
	if err := p.CreateDir(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if err := p.Upload(ctx, "d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if store.FileCount() != 0 {
		t.Fatal("delete not forwarded")
	}
}

func TestProbingThroughputReflectsClock(t *testing.T) {
	prober := sched.NewProber(0)
	clk := vclock.NewWorld(time.Unix(0, 0))
	// Interface compliance and a sanity check that durations come
	// from the supplied clock: a store whose calls take 100 ms of the
	// world's time yields a finite bandwidth.
	slow := cloudsim.NewFlaky(cloudsim.NewDirect(cloudsim.NewStore("c1", 0)), 0, 1)
	slow.SetClock(clk)
	slow.SetLatency(100*time.Millisecond, 0)
	var c cloud.Interface = NewProbing(slow, prober, clk)
	if err := c.Upload(context.Background(), "f", make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	small, _ := prober.Estimate("c1", sched.Up, 0)
	if big, ok := prober.Estimate("c1", sched.Up, 1<<30); !ok || big <= small {
		t.Fatalf("estimate for 1 GB = %v (ok=%v), for 0 B = %v: no bandwidth sample", big, ok, small)
	}
}
