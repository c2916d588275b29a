package qlock

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

// A preferred cloud that hangs its flag upload makes a quorum-only
// round ask one more cloud once the wait runs out, instead of waiting
// out the request's timeout; the round still wins on three clouds, and
// the hung chain sheds its flag once it ends.
func TestHungPreferredCloudWidens(t *testing.T) {
	clouds, held, bare := heldClouds(5)
	reg := obs.NewRegistry()
	clk := newWorld()
	cfg := fastCfg(clk, "d1")
	cfg.Expiry = time.Hour // no renewal inside the holds
	cfg.Obs = reg
	m := New(clouds, cfg)
	if err := acquireWithin(t, m).Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	hungName := m.preferred[0]
	hung := newValve()
	hung.deaf = true
	for _, h := range held {
		if h.Name() == hungName {
			h.uploads = hung
		}
	}

	start := clk.Now()
	second := acquireWithin(t, m)
	if took := clk.Now().Sub(start); took > 5*time.Second {
		t.Errorf("the widened round took %v", took)
	}
	hung.await(t, 1, "hung upload")
	if n := reg.Counter("qlock.widened").Value(); n < 1 {
		t.Errorf("qlock.widened = %d, want at least the hung cloud's replacement", n)
	}
	if n := reg.Counter("qlock.degraded_rounds").Value(); n != 0 {
		t.Errorf("a widened round counted as degraded (%d)", n)
	}
	for j, c := range second.round.clouds {
		if c.Name() == hungName && second.round.won[j] {
			t.Error("the round was won on the hung cloud")
		}
	}
	ctx, cancel := vclock.WithTimeout(clk, context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := second.Release(ctx); err != nil {
		t.Fatal(err)
	}
	close(hung.open)
	<-second.round.chains.Done()
	if left := lockDirNames(t, bare); len(left) != 0 {
		t.Errorf("flags left once the hung chain ended: %v", left)
	}
}

// Mutual exclusion does not depend on which clouds a round asks: four
// devices, each asking first a different quorum of the five clouds,
// never hold the lock at once.
func TestMutualExclusionStressPreferringDifferentClouds(t *testing.T) {
	clouds := newClouds(5)
	const devices = 4
	const rounds = 5
	var inCritical, violations, acquired atomic.Int32
	clk := newWorld()
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			m := New(clouds, fastCfg(clk, fmt.Sprintf("dev%d", d)))
			for r := 0; r < rounds; r++ {
				m.mu.Lock()
				m.preferred = nil
				for k := 0; k < m.Quorum(); k++ {
					m.preferred = append(m.preferred, clouds[(d+k)%len(clouds)].Name())
				}
				m.mu.Unlock()
				l, err := acquireFor(m, 10*time.Minute)
				if err != nil {
					t.Errorf("dev%d round %d: %v", d, r, err)
					return
				}
				if inCritical.Add(1) != 1 {
					violations.Add(1)
				}
				clk.Sleep(20 * time.Millisecond) // critical section
				inCritical.Add(-1)
				acquired.Add(1)
				if err := l.Release(context.Background()); err != nil {
					t.Errorf("release: %v", err)
				}
			}
		}(d)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual exclusion violations", v)
	}
	if got := acquired.Load(); got != devices*rounds {
		t.Fatalf("acquired %d times, want %d", got, devices*rounds)
	}
}
