package health

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

func testTracker(clk vclock.Clock, reg *obs.Registry) *Tracker {
	return NewDefaultTracker(clk, 7, reg)
}

// guarded is inner behind the tracker's breaker for it, as the client
// stack builds it: the breaker gates every call and observes the
// outcome of every call it admitted.
func guarded(tr *Tracker, clk vclock.Clock, inner cloud.Interface) *cloud.Chain {
	b := tr.Breaker(inner.Name())
	return cloud.NewChain(inner, clk, b, b.ObserveCall)
}

// advancePastCooldown moves the manual clock beyond the jittered
// cooldown window (base + 25%).
func advancePastCooldown(clk *vclock.Manual) {
	clk.Advance(OpenTimeout + OpenTimeout/4 + time.Second)
}

// TestBreakerTransitions is the table-driven state machine test: each
// case starts from a fresh breaker and applies a script of events,
// asserting the state after every step. Events:
//
//	ok    – successful request reported
//	fail  – transient failure reported
//	down  – ErrUnavailable reported
//	nf    – ErrNotFound reported (healthy protocol answer)
//	cancel– context.Canceled reported (ignored)
//	wait  – advance the clock past the open cooldown
//	allow / reject – assert Allow() admits / rejects (consumes a probe
//	        slot when admitted while half-open)
type step struct {
	event string
	want  State
}

func TestBreakerTransitions(t *testing.T) {
	cases := []struct {
		name  string
		steps []step
	}{
		{"stays closed on success", []step{
			{"ok", Closed}, {"ok", Closed}, {"ok", Closed},
		}},
		{"two failures do not trip", []step{
			{"fail", Closed}, {"fail", Closed}, {"ok", Closed},
		}},
		{"consecutive failures trip at threshold", []step{
			{"fail", Closed}, {"fail", Closed}, {"fail", Open},
		}},
		{"success resets the streak", []step{
			{"fail", Closed}, {"fail", Closed}, {"ok", Closed},
			{"fail", Closed}, {"fail", Closed}, {"fail", Open},
		}},
		{"unavailable trips immediately", []step{
			{"down", Open},
		}},
		{"not-found and cancellation are not failures", []step{
			{"nf", Closed}, {"cancel", Closed}, {"nf", Closed},
			{"fail", Closed}, {"cancel", Closed}, {"fail", Closed},
			// cancel must not reset the streak either: third real
			// failure still trips.
			{"fail", Open},
		}},
		{"open rejects until cooldown", []step{
			{"down", Open}, {"reject", Open}, {"reject", Open},
			{"wait", HalfOpen},
		}},
		{"half-open closes after enough probe successes", []step{
			{"down", Open}, {"wait", HalfOpen},
			{"allow", HalfOpen}, {"ok", HalfOpen}, // 1st probe OK
			{"allow", HalfOpen}, {"ok", Closed}, // 2nd closes
		}},
		{"half-open reopens on failed probe", []step{
			{"down", Open}, {"wait", HalfOpen},
			{"allow", HalfOpen}, {"fail", Open},
			{"reject", Open},
		}},
		{"half-open probe budget is bounded", []step{
			{"down", Open}, {"wait", HalfOpen},
			{"allow", HalfOpen},  // consumes the single probe slot
			{"reject", HalfOpen}, // second concurrent request rejected
			{"ok", HalfOpen},     // slot released by the report
			{"allow", HalfOpen},
		}},
		{"full recovery cycle", []step{
			{"fail", Closed}, {"fail", Closed}, {"fail", Open},
			{"wait", HalfOpen},
			{"allow", HalfOpen}, {"ok", HalfOpen},
			{"allow", HalfOpen}, {"ok", Closed},
			// closed again: streak restarts from zero
			{"fail", Closed}, {"fail", Closed}, {"fail", Open},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewManual(time.Unix(0, 0))
			tr := testTracker(clk, nil)
			b := tr.Breaker("c0")
			for i, s := range tc.steps {
				switch s.event {
				case "ok":
					b.Report(nil, time.Millisecond)
				case "fail":
					b.Report(fmt.Errorf("x: %w", cloud.ErrTransient), time.Millisecond)
				case "down":
					b.Report(fmt.Errorf("x: %w", cloud.ErrUnavailable), time.Millisecond)
				case "nf":
					b.Report(fmt.Errorf("x: %w", cloud.ErrNotFound), time.Millisecond)
				case "cancel":
					b.Report(context.Canceled, 0)
				case "wait":
					advancePastCooldown(clk)
				case "allow":
					if !b.Allow() {
						t.Fatalf("step %d: Allow() = false, want admitted", i)
					}
				case "reject":
					if b.Allow() {
						t.Fatalf("step %d: Allow() = true, want rejected", i)
					}
				default:
					t.Fatalf("unknown event %q", s.event)
				}
				if got := b.State(); got != s.want {
					t.Fatalf("step %d (%s): state = %v, want %v", i, s.event, got, s.want)
				}
			}
		})
	}
}

// The error-rate trip under the production rules: F F S F F S F F
// never runs three failures in a row, yet the EWMA error rate reaches
// tripErrorRate at the minSamples-th sample and trips the breaker there.
func TestBreakerErrorRateTrip(t *testing.T) {
	tr := testTracker(vclock.NewManual(time.Unix(0, 0)), nil)
	b := tr.Breaker("c0")
	script := "FFSFFSFF"
	for i, outcome := range script {
		if b.State() != Closed {
			t.Fatalf("tripped after %d samples, want %d; rate=%.3f", i, len(script), b.errRate.Value())
		}
		if outcome == 'F' {
			b.Report(cloud.ErrTransient, time.Millisecond)
		} else {
			b.Report(nil, time.Millisecond)
		}
	}
	if len(script) != minSamples {
		t.Fatalf("script has %d samples, want minSamples=%d", len(script), minSamples)
	}
	if b.State() != Open {
		t.Fatalf("breaker should trip on sustained error rate at sample %d; rate=%.3f", minSamples, b.errRate.Value())
	}
	if b.errRate.Value() < tripErrorRate {
		t.Fatalf("tripped below the rate: %.3f < %v", b.errRate.Value(), tripErrorRate)
	}
}

func TestBreakerReprobeJitterDeterministic(t *testing.T) {
	// Two trackers with the same seed schedule identical re-probe
	// times; a different seed diverges.
	probeDelay := func(seed int64) time.Duration {
		clk := vclock.NewManual(time.Unix(0, 0))
		tr := NewDefaultTracker(clk, seed, nil)
		b := tr.Breaker("c0")
		b.Report(cloud.ErrUnavailable, 0)
		var d time.Duration
		for b.State() == Open {
			clk.Advance(100 * time.Millisecond)
			d += 100 * time.Millisecond
			if d > time.Minute {
				t.Fatal("breaker never half-opened")
			}
		}
		return d
	}
	if probeDelay(3) != probeDelay(3) {
		t.Error("same seed should reproduce the same cooldown")
	}
	if probeDelay(3) == probeDelay(4) && probeDelay(3) == probeDelay(5) {
		t.Error("different seeds should jitter the cooldown")
	}
}

func TestTrackerAdmitsAndHealthiest(t *testing.T) {
	clk := vclock.NewManual(time.Unix(0, 0))
	tr := testTracker(clk, nil)

	// c-bad goes down; c-slow is healthy but slower; c-fast is best.
	tr.Breaker("c-bad").Report(cloud.ErrUnavailable, 0)
	tr.Breaker("c-slow").Report(nil, 500*time.Millisecond)
	tr.Breaker("c-fast").Report(nil, 50*time.Millisecond)

	if tr.Admits("c-bad") {
		t.Error("open breaker should not admit")
	}
	if !tr.Admits("c-fast") || !tr.Admits("c-new") {
		t.Error("closed breakers (including never-seen clouds) should admit")
	}

	got := tr.Healthiest([]string{"c-slow", "c-bad", "c-fast"})
	want := []string{"c-fast", "c-slow"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Healthiest = %v, want %v", got, want)
	}

	// After the cooldown the bad cloud is half-open: admitted again,
	// but ranked behind closed breakers.
	advancePastCooldown(clk)
	if !tr.Admits("c-bad") {
		t.Error("half-open breaker should admit probes")
	}
	got = tr.Healthiest([]string{"c-bad", "c-fast"})
	if len(got) != 2 || got[0] != "c-fast" || got[1] != "c-bad" {
		t.Errorf("Healthiest with half-open = %v, want [c-fast c-bad]", got)
	}
}

func TestGuardFailsFastAndReports(t *testing.T) {
	clk := vclock.NewManual(time.Unix(0, 0))
	reg := obs.NewRegistry()
	tr := testTracker(clk, reg)

	store := cloudsim.NewStore("c0", 0)
	flaky := cloudsim.NewFlaky(cloudsim.NewDirect(store), 0, 1)
	rec := cloudsim.NewRecorder(flaky)
	g := guarded(tr, clk, rec)
	ctx := context.Background()

	if g.Name() != "c0" {
		t.Fatalf("Name = %q", g.Name())
	}
	if err := g.Upload(ctx, "f", []byte("hello")); err != nil {
		t.Fatalf("upload through closed breaker: %v", err)
	}
	data, err := g.Download(ctx, "f")
	if err != nil || string(data) != "hello" {
		t.Fatalf("download = %q, %v", data, err)
	}

	// Outage: the first unavailable error trips the breaker...
	flaky.SetDown(true)
	if err := g.Upload(ctx, "g", []byte("x")); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if tr.Breaker("c0").State() != Open {
		t.Fatalf("state = %v, want Open", tr.Breaker("c0").State())
	}
	callsBefore := rec.Counts().Total()

	// ...and every further call fails fast without touching the cloud.
	for i := 0; i < 5; i++ {
		if err := g.Upload(ctx, "g", []byte("x")); !errors.Is(err, cloud.ErrCircuitOpen) {
			t.Fatalf("err = %v, want ErrCircuitOpen", err)
		}
	}
	if _, err := g.Download(ctx, "f"); !errors.Is(err, cloud.ErrCircuitOpen) {
		t.Fatalf("download err = %v, want ErrCircuitOpen", err)
	}
	if _, err := g.List(ctx, ""); !errors.Is(err, cloud.ErrCircuitOpen) {
		t.Fatalf("list err = %v, want ErrCircuitOpen", err)
	}
	if err := g.CreateDir(ctx, "d"); !errors.Is(err, cloud.ErrCircuitOpen) {
		t.Fatalf("createdir err = %v, want ErrCircuitOpen", err)
	}
	if err := g.Delete(ctx, "g"); !errors.Is(err, cloud.ErrCircuitOpen) {
		t.Fatalf("delete err = %v, want ErrCircuitOpen", err)
	}
	if got := rec.Counts().Total(); got != callsBefore {
		t.Fatalf("open breaker leaked %d calls to the cloud", got-callsBefore)
	}
	if n := reg.Counter("health.breaker.c0.rejected").Value(); n != 9 {
		t.Errorf("rejected counter = %d, want 9", n)
	}
	if n := reg.Counter("health.breaker.c0.opened").Value(); n != 1 {
		t.Errorf("opened counter = %d, want 1", n)
	}

	// Recovery: cooldown elapses, the cloud comes back, and probe
	// successes close the breaker again.
	flaky.SetDown(false)
	advancePastCooldown(clk)
	for i := 0; i < 2; i++ {
		if err := g.Upload(ctx, "h", []byte("y")); err != nil {
			t.Fatalf("probe upload %d: %v", i, err)
		}
	}
	if tr.Breaker("c0").State() != Closed {
		t.Fatalf("state after probes = %v, want Closed", tr.Breaker("c0").State())
	}
	if n := reg.Counter("health.breaker.c0.closed").Value(); n != 1 {
		t.Errorf("closed counter = %d, want 1", n)
	}
	if n := reg.Counter("health.breaker.c0.half_opened").Value(); n != 1 {
		t.Errorf("half_opened counter = %d, want 1", n)
	}
	if v := reg.Gauge("health.breaker.c0.state").Value(); v != float64(Closed) {
		t.Errorf("state gauge = %v, want %v", v, float64(Closed))
	}
}

func TestStateString(t *testing.T) {
	if Closed.String() != "closed" || HalfOpen.String() != "half-open" || Open.String() != "open" {
		t.Errorf("state names wrong: %v %v %v", Closed, HalfOpen, Open)
	}
}
