package qlock

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/obs"
)

// gatedDeletes holds the deletes that reach it at the valve armed, if
// any.
type gatedDeletes struct {
	cloud.Interface
	valve atomic.Pointer[valve]
}

func (g *gatedDeletes) Delete(ctx context.Context, path string) error {
	if err := g.valve.Load().pass(ctx); err != nil {
		return err
	}
	return g.Interface.Delete(ctx, path)
}

// contend runs one acquisition round of m and reports whether it won;
// a won lock is released.
func contend(t *testing.T, m *Manager) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l, err := m.Acquire(ctx)
	if errors.Is(err, ErrNotAcquired) {
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(ctx); err != nil {
		t.Fatal(err)
	}
	return true
}

// A won hold keeps its flags on its quorum only, and that is enough to
// exclude: a contender loses before the straggling clouds shed (their
// lists held), after they shed, and while the holder's release is in
// flight (its deletes held), and wins once that release has ended.
func TestShedHoldExcludes(t *testing.T) {
	clouds, held, bare := heldClouds(5)
	parked := newValve()
	held[3].lists, held[4].lists = parked, parked
	gates := make([]*gatedDeletes, len(clouds))
	for i := range clouds {
		gates[i] = &gatedDeletes{Interface: clouds[i]}
		clouds[i] = gates[i]
	}
	reg := obs.NewRegistry()
	cfg := fastCfg("a")
	cfg.Expiry = time.Minute // no flag of the test ages into a break
	cfg.RefreshInterval = time.Hour
	cfg.Obs = reg
	a := acquireWithin(t, New(clouds, cfg))
	parked.await(t, 2, "parked straggler lists")

	ccfg := fastCfg("c")
	ccfg.Expiry = time.Minute
	ccfg.MaxAttempts = 1
	c := New(bare, ccfg)
	flagged := func(what string, want func(j int) bool) {
		t.Helper()
		names := lockDirNames(t, bare)
		for j, cl := range bare {
			found := false
			for _, n := range names[cl.Name()] {
				found = found || n == a.name
				if !ownedBy(n, "a") {
					t.Errorf("%s: %s holds %s", what, cl.Name(), n)
				}
			}
			if found != want(j) {
				t.Errorf("%s: %s holds the hold's flag: %v, want %v", what, cl.Name(), found, want(j))
			}
		}
	}

	// Before the shed: the hold's flag is on every cloud.
	flagged("before the shed", func(int) bool { return true })
	if contend(t, c) {
		t.Fatal("a contender won before the hold shed its stragglers' flags")
	}

	// After the shed: on the winning quorum only.
	close(parked.open)
	<-a.round.chains.Done()
	if a.round.won[3] || a.round.won[4] {
		t.Fatal("the hold was won on a cloud whose list was parked")
	}
	if n := reg.Counter("qlock.shed_flags").Value(); n != 2 {
		t.Errorf("qlock.shed_flags = %d, want 2", n)
	}
	flagged("after the shed", func(j int) bool { return a.round.won[j] })
	if contend(t, c) {
		t.Fatal("a contender won against a shed hold")
	}

	// While the release is in flight: its deletes are held.
	gated := newValve()
	for _, g := range gates {
		g.valve.Store(gated)
	}
	released := make(chan error, 1)
	go func() { released <- a.Release(context.Background()) }()
	gated.await(t, cloud.Quorum(len(clouds)), "release deletes")
	if contend(t, c) {
		t.Fatal("a contender won while the release's deletes were held")
	}
	close(gated.open)
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Release did not return once its deletes were let go")
	}
	if !contend(t, c) {
		t.Fatal("the contender lost after the release ended")
	}
	if left := lockDirNames(t, bare); len(left) != 0 {
		t.Errorf("flags left after both releases: %v", left)
	}
}
