package qlock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
)

// newClouds builds n direct (unshaped) simulated clouds sharing
// nothing, as independent providers do.
func newClouds(n int) []cloud.Interface {
	out := make([]cloud.Interface, n)
	for i := range out {
		out[i] = cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0))
	}
	return out
}

func fastCfg(device string) Config {
	return Config{
		Device:          device,
		Expiry:          300 * time.Millisecond,
		RefreshInterval: 50 * time.Millisecond,
		BackoffBase:     5 * time.Millisecond,
		BackoffMax:      40 * time.Millisecond,
	}
}

func TestAcquireReleaseSingleDevice(t *testing.T) {
	clouds := newClouds(5)
	m := New(clouds, fastCfg("d1"))
	if m.Quorum() != 3 {
		t.Fatalf("Quorum = %d, want 3 of 5", m.Quorum())
	}
	l, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !l.Valid() {
		t.Fatal("freshly acquired lock not valid")
	}
	if err := l.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	// All lock files must be gone.
	for _, c := range clouds {
		entries, err := c.List(context.Background(), DefaultLockDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Fatalf("lock file %s left on %s after release", e.Name, c.Name())
		}
	}
	// Release is idempotent.
	if err := l.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSecondDeviceBlockedWhileHeld(t *testing.T) {
	clouds := newClouds(5)
	m1 := New(clouds, fastCfg("d1"))
	cfg2 := fastCfg("d2")
	cfg2.MaxAttempts = 3
	m2 := New(clouds, cfg2)

	l1, err := m1.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Release(context.Background())

	if _, err := m2.Acquire(context.Background()); !errors.Is(err, ErrNotAcquired) {
		t.Fatalf("second device acquired while held: err = %v", err)
	}
}

func TestMutualExclusionStress(t *testing.T) {
	clouds := newClouds(5)
	const devices = 4
	const rounds = 5
	var inCritical atomic.Int32
	var violations atomic.Int32
	var acquired atomic.Int32

	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			m := New(clouds, fastCfg(fmt.Sprintf("dev%d", d)))
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				l, err := m.Acquire(ctx)
				cancel()
				if err != nil {
					t.Errorf("dev%d round %d: %v", d, r, err)
					return
				}
				if inCritical.Add(1) != 1 {
					violations.Add(1)
				}
				time.Sleep(2 * time.Millisecond) // critical section
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

func TestCrashedHolderLockBroken(t *testing.T) {
	clouds := newClouds(3)
	// Simulate a crashed device: its lock files sit in the lock dir
	// and are never refreshed.
	for _, c := range clouds {
		path := cloud.JoinPath(DefaultLockDir, "lock_deadbeef_123.1")
		if err := c.Upload(context.Background(), path, nil); err != nil {
			t.Fatal(err)
		}
	}
	cfg := fastCfg("survivor")
	m := New(clouds, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	l, err := m.Acquire(ctx)
	if err != nil {
		t.Fatalf("survivor never acquired after crash: %v", err)
	}
	defer l.Release(context.Background())
	if waited := time.Since(start); waited < cfg.Expiry {
		t.Fatalf("lock broken after only %v, before expiry %v", waited, cfg.Expiry)
	}
	// The obsolete files must have been deleted: on the clouds of the
	// winning quorum by the time Acquire returns, on the rest once the
	// round's stragglers have ended.
	brokenOn := func() (n int) {
		for _, c := range clouds {
			entries, _ := c.List(context.Background(), DefaultLockDir)
			crashed := false
			for _, e := range entries {
				crashed = crashed || ownedBy(e.Name, "deadbeef")
			}
			if !crashed {
				n++
			}
		}
		return n
	}
	if n := brokenOn(); n < m.Quorum() {
		t.Fatalf("crashed device's lock broken on %d clouds at the win, want a quorum of %d", n, m.Quorum())
	}
	<-l.round.chains.Done()
	if n := brokenOn(); n != len(clouds) {
		t.Fatalf("crashed device's lock broken on %d of %d clouds", n, len(clouds))
	}
}

func TestRefreshKeepsLockAliveBeyondExpiry(t *testing.T) {
	clouds := newClouds(3)
	m1 := New(clouds, fastCfg("holder"))
	l, err := m1.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release(context.Background())

	// A second device keeps trying for 3x expiry; it must never win
	// because the holder refreshes.
	cfg2 := fastCfg("challenger")
	m2 := New(clouds, cfg2)
	ctx, cancel := context.WithTimeout(context.Background(), 3*cfg2.Expiry)
	defer cancel()
	if l2, err := m2.Acquire(ctx); err == nil {
		l2.Release(context.Background())
		t.Fatal("challenger acquired a live, refreshing lock")
	}
	if !l.Valid() {
		t.Fatal("holder lost validity despite refreshing")
	}
}

func TestQuorumToleratesMinorityOutage(t *testing.T) {
	stores := make([]*cloudsim.Store, 5)
	clouds := make([]cloud.Interface, 5)
	flaky := make([]*cloudsim.Flaky, 5)
	for i := range clouds {
		stores[i] = cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)
		flaky[i] = cloudsim.NewFlaky(cloudsim.NewDirect(stores[i]), 0, int64(i+1))
		clouds[i] = flaky[i]
	}
	// Two of five clouds down: majority still reachable.
	flaky[0].SetDown(true)
	flaky[1].SetDown(true)

	m := New(clouds, fastCfg("d1"))
	l, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire with 2/5 clouds down: %v", err)
	}
	l.Release(context.Background())
}

func TestNoQuorumWithMajorityOutage(t *testing.T) {
	clouds := make([]cloud.Interface, 5)
	flaky := make([]*cloudsim.Flaky, 5)
	for i := range clouds {
		flaky[i] = cloudsim.NewFlaky(cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)), 0, int64(i+1))
		clouds[i] = flaky[i]
	}
	for i := 0; i < 3; i++ {
		flaky[i].SetDown(true)
	}
	cfg := fastCfg("d1")
	cfg.MaxAttempts = 2
	m := New(clouds, cfg)
	if _, err := m.Acquire(context.Background()); !errors.Is(err, ErrNotAcquired) {
		t.Fatalf("acquired without a possible quorum: %v", err)
	}
}

func TestLockLosesValidityWhenCloudsVanish(t *testing.T) {
	clouds := make([]cloud.Interface, 3)
	flaky := make([]*cloudsim.Flaky, 3)
	for i := range clouds {
		flaky[i] = cloudsim.NewFlaky(cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)), 0, int64(i+1))
		clouds[i] = flaky[i]
	}
	m := New(clouds, fastCfg("d1"))
	l, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release(context.Background())
	for _, f := range flaky {
		f.SetDown(true)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Valid() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if l.Valid() {
		t.Fatal("lock stayed valid though every cloud is unreachable")
	}
}

func TestAcquireContextCancelled(t *testing.T) {
	clouds := newClouds(3)
	holder := New(clouds, fastCfg("holder"))
	l, err := holder.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	m := New(clouds, fastCfg("waiter"))
	if _, err := m.Acquire(ctx); err == nil {
		t.Fatal("acquire succeeded against a held lock with cancelled context")
	}
}

func TestOwnStaleLocksDoNotBlockSelf(t *testing.T) {
	clouds := newClouds(3)
	// This device crashed previously, leaving its own stale files.
	for _, c := range clouds {
		path := cloud.JoinPath(DefaultLockDir, "lock_d1_999.9")
		if err := c.Upload(context.Background(), path, nil); err != nil {
			t.Fatal(err)
		}
	}
	m := New(clouds, fastCfg("d1"))
	l, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatalf("own stale lock files blocked reacquisition: %v", err)
	}
	l.Release(context.Background())
	// Release removes the stale files as well.
	for _, c := range clouds {
		entries, _ := c.List(context.Background(), DefaultLockDir)
		if len(entries) != 0 {
			t.Fatalf("stale own lock files not cleaned: %v", entries)
		}
	}
}

func TestOwnedBy(t *testing.T) {
	if !ownedBy("lock_dev1_123.4", "dev1") {
		t.Fatal("ownedBy missed own lock")
	}
	if ownedBy("lock_dev10_123.4", "dev1") {
		t.Fatal("ownedBy matched prefix of other device")
	}
	if ownedBy("notalock", "dev1") {
		t.Fatal("ownedBy matched non-lock")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with no clouds did not panic")
		}
	}()
	New(nil, fastCfg("d"))
}

func TestNewEmptyDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with empty device did not panic")
		}
	}()
	New(newClouds(1), Config{})
}

// TestOwnershipIsTheExactDevice regresses flag ownership by name
// prefix: device "a" took device "a_b"'s flags for its own, so both
// held the lock at once, and "a"'s release deleted "a_b"'s flags.
func TestOwnershipIsTheExactDevice(t *testing.T) {
	clouds := newClouds(5)
	ab := New(clouds, fastCfg("a_b"))
	cfg := fastCfg("a")
	cfg.MaxAttempts = 1
	a := New(clouds, cfg)

	l, err := ab.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release(context.Background())
	if la, err := a.Acquire(context.Background()); !errors.Is(err, ErrNotAcquired) {
		if la != nil {
			_ = la.Release(context.Background())
		}
		t.Fatalf("device a acquired while a_b holds the lock: err = %v", err)
	}
	flagged := 0 // clouds still holding a_b's flag after a's withdrawal
	for _, c := range clouds {
		entries, err := c.List(context.Background(), DefaultLockDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if ownedBy(e.Name, "a_b") {
				flagged++
				break
			}
		}
	}
	if flagged < ab.Quorum() {
		t.Fatalf("a_b's flags remain on %d clouds after a's failed attempt, want a quorum", flagged)
	}
	if !l.Valid() {
		t.Fatal("a_b's lock lost its validity")
	}
}
