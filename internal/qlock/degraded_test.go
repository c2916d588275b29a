package qlock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

// gate is a test Health implementation: a set of blocked cloud names.
type gate struct {
	mu      sync.Mutex
	blocked map[string]bool
}

func newGate(blocked ...string) *gate {
	g := &gate{blocked: make(map[string]bool)}
	for _, n := range blocked {
		g.blocked[n] = true
	}
	return g
}

func (g *gate) Admits(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.blocked[name]
}

// recordedClouds builds n direct clouds each wrapped in a Recorder so
// tests can assert exactly which providers were addressed.
func recordedClouds(n int) ([]cloud.Interface, []*cloudsim.Recorder) {
	clouds := make([]cloud.Interface, n)
	recs := make([]*cloudsim.Recorder, n)
	for i := range clouds {
		recs[i] = cloudsim.NewRecorder(cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)))
		clouds[i] = recs[i]
	}
	return clouds, recs
}

func TestAcquireDegradedSkipsBlockedCloud(t *testing.T) {
	// One of three clouds has an open breaker: the protocol must win
	// its majority (2 of 3) on the remaining clouds without sending the
	// blocked one a single request, and must say so in the metrics.
	clouds, recs := recordedClouds(3)
	reg := obs.NewRegistry()
	cfg := fastCfg(newWorld(), "d1")
	cfg.Health = newGate("c2")
	cfg.Obs = reg
	m := New(clouds, cfg)

	lock, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatalf("degraded acquire: %v", err)
	}
	if !lock.Valid() {
		t.Fatal("lock invalid right after acquisition")
	}
	if got := recs[2].Counts().Total(); got != 0 {
		t.Errorf("blocked cloud saw %d requests during acquisition", got)
	}
	if n := reg.Counter("qlock.degraded_rounds").Value(); n < 1 {
		t.Errorf("degraded_rounds = %d, want >= 1", n)
	}
	if n := reg.Counter("qlock.quorum_blocked").Value(); n != 0 {
		t.Errorf("quorum_blocked = %d, want 0 (majority was reachable)", n)
	}
	if n := reg.Gauge("qlock.admitted_clouds").Value(); n != 2 {
		t.Errorf("admitted_clouds gauge = %v, want 2", n)
	}
	if err := lock.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireQuorumBlockedSendsNothing(t *testing.T) {
	// With a majority of breakers open the quorum is arithmetically
	// out of reach: every round must be refused locally (no uploads at
	// all) until the acquisition's deadline.
	clouds, recs := recordedClouds(3)
	reg := obs.NewRegistry()
	cfg := fastCfg(newWorld(), "d1")
	cfg.Health = newGate("c1", "c2")
	cfg.Obs = reg
	m := New(clouds, cfg)

	_, err := acquireFor(m, 10*time.Second)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	attempts := reg.Counter("qlock.acquire.attempts").Value()
	if n := reg.Counter("qlock.quorum_blocked").Value(); attempts < 2 || n != attempts {
		t.Errorf("quorum_blocked = %d after %d attempts, want one per attempt and at least 2", n, attempts)
	}
	for i, rec := range recs {
		if got := rec.Counts().Upload; got != 0 {
			t.Errorf("cloud c%d received %d uploads, want 0", i, got)
		}
	}
}

func TestRefreshDegradedKeepsMajorityValidity(t *testing.T) {
	// A held lock stays valid while renewals still reach a majority,
	// and the blocked cloud is left alone by the refresh loop too.
	clouds, recs := recordedClouds(3)
	clk := newWorld()
	cfg := fastCfg(clk, "d1")
	g := newGate()
	cfg.Health = g
	m := New(clouds, cfg)

	lock, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.blocked["c2"] = true
	g.mu.Unlock()
	<-lock.round.chains.Done() // the winning round's stragglers are not refresh traffic
	before := recs[2].Counts().Total()
	clk.Sleep(cfg.Expiry) // four renewals
	if !lock.Valid() {
		t.Fatal("lock lost validity though a majority still renews")
	}
	if got := recs[2].Counts().Total(); got != before {
		t.Errorf("blocked cloud saw %d refresh requests", got-before)
	}
	if err := lock.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRenewalIsNotARound(t *testing.T) {
	// The round metrics (DESIGN.md §6) count acquisition rounds: a
	// renewal of a degraded hold addresses the same two clouds, but it
	// must not count as a degraded round.
	clouds, _ := recordedClouds(3)
	reg := obs.NewRegistry()
	clk := newWorld()
	cfg := fastCfg(clk, "d1")
	cfg.Health = newGate("c2")
	cfg.Obs = reg
	m := New(clouds, cfg)

	lock, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	clk.Sleep(cfg.Expiry) // four renewals
	if n := reg.Counter("qlock.refreshes").Value(); n < 3 {
		t.Fatalf("the hold was renewed %d times in ΔT, want at least 3", n)
	}
	if err := lock.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	rounds := reg.Counter("qlock.rounds").Value()
	if n := reg.Counter("qlock.degraded_rounds").Value(); n != rounds {
		t.Errorf("degraded_rounds = %d after %d rounds and %d renewals, want %d",
			n, rounds, reg.Counter("qlock.refreshes").Value(), rounds)
	}
	if n := reg.Counter("qlock.quorum_blocked").Value(); n != 0 {
		t.Errorf("quorum_blocked = %d, want 0", n)
	}
}

func TestAcquireBackoffInterruptibleByContext(t *testing.T) {
	// A contended acquisition parks in its jittered backoff; caller
	// cancellation must wake it immediately — without any clock
	// advance — instead of letting it sleep out the backoff.
	store := cloudsim.NewStore("c0", 0)
	ctx := context.Background()
	direct := cloudsim.NewDirect(store)
	if err := direct.Upload(ctx, cloud.JoinPath(DefaultLockDir, "lock_other_1.1"), nil); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewManual(time.Unix(0, 0))
	m := New([]cloud.Interface{direct}, fastCfg(clk, "d1"))

	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(cctx)
		done <- err
	}()
	// Wait until the acquisition is parked on the manual clock.
	for i := 0; clk.PendingWaiters() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if clk.PendingWaiters() == 0 {
		t.Fatal("acquisition never reached the backoff sleep")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backoff sleep not interrupted by cancellation")
	}
}

func TestAcquireExhaustsAttemptsThroughBackoffs(t *testing.T) {
	// Contended throughout: each failed attempt must back off, jittered
	// on the injected clock around a ceiling that doubles up to
	// backoffMax, until the context's deadline ends the loop.
	store := cloudsim.NewStore("c0", 0)
	ctx := context.Background()
	direct := cloudsim.NewDirect(store)
	if err := direct.Upload(ctx, cloud.JoinPath(DefaultLockDir, "lock_other_1.1"), nil); err != nil {
		t.Fatal(err)
	}
	clk := newWorld()
	reg := obs.NewRegistry()
	cfg := fastCfg(clk, "d1")
	cfg.Expiry = time.Hour // the other device's flag never expires here
	cfg.Obs = reg
	m := New([]cloud.Interface{direct}, cfg)

	start := clk.Now()
	_, err := acquireFor(m, time.Minute)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := clk.Now().Sub(start); took != time.Minute {
		t.Errorf("acquisition ended after %v, want at its 1m deadline", took)
	}
	// Ceilings 0.2, 0.4, ..., 3.2 s, then 5 s: each backoff sleeps a
	// quarter to five quarters of its ceiling, so a minute holds 12 to
	// 52 of them.
	attempts := reg.Counter("qlock.acquire.attempts").Value()
	if n := reg.Counter("qlock.backoffs").Value(); n != attempts || n < 12 || n > 52 {
		t.Errorf("backoffs = %d after %d attempts, want one per attempt, 12 to 52 in a minute", n, attempts)
	}
}
