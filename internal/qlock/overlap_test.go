package qlock

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
)

// parkedFlags holds the deletes of one named flag file at a valve, and
// lets every other call through.
type parkedFlags struct {
	cloud.Interface
	park atomic.Pointer[parking]
}

type parking struct {
	name  string
	valve *valve
}

func (p *parkedFlags) Delete(ctx context.Context, path string) error {
	if k := p.park.Load(); k != nil && strings.HasSuffix(path, "/"+k.name) {
		if err := k.valve.pass(ctx); err != nil {
			return err
		}
	}
	return p.Interface.Delete(ctx, path)
}

// parkRelease releases l on its own goroutine with the deletes of its
// flag held at a fresh valve, and returns once the first of them has
// arrived there — the lock is invalid from then on — with the valve and
// the release's outcome.
func parkRelease(t *testing.T, clouds []*parkedFlags, l *Lock) (*valve, <-chan error) {
	t.Helper()
	v := newValve()
	for _, c := range clouds {
		c.park.Store(&parking{name: l.name, valve: v})
	}
	done := make(chan error, 1)
	go func() { done <- l.Release(context.Background()) }()
	v.await(t, 1, "parked flag deletes")
	return v, done
}

// unpark opens v and waits for the release it holds.
func unpark(t *testing.T, v *valve, done <-chan error) {
	t.Helper()
	close(v.open)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked release did not end once opened")
	}
}

// keepsFlag fails the test unless l's flag is on every cloud that won
// l's round: no other round's delete took it.
func keepsFlag(t *testing.T, bare []cloud.Interface, l *Lock) {
	t.Helper()
	names := lockDirNames(t, bare)
	for j, c := range l.round.clouds {
		if l.round.won[j] && !slices.Contains(names[c.Name()], l.name) {
			t.Errorf("%s lost the hold's flag %s to another round's delete", c.Name(), l.name)
		}
	}
}

// winners names the clouds that won l's round, sorted.
func winners(l *Lock) (names []string) {
	for j, c := range l.round.clouds {
		if l.round.won[j] {
			names = append(names, c.Name())
		}
	}
	slices.Sort(names)
	return names
}

func parkedClouds(n int) (clouds []cloud.Interface, parked []*parkedFlags, recs []*cloudsim.Recorder) {
	bare, recs := recordedClouds(n)
	for _, c := range bare {
		p := &parkedFlags{Interface: c}
		clouds, parked = append(clouds, p), append(parked, p)
	}
	return clouds, parked, recs
}

// A Release runs beside the same Manager's next Acquire, as a device's
// commit pass leaves its release to the hold's tail: each release here
// is parked at its deletes until the next hold has won. The next hold
// wins on the clouds that won the last, where the parked release's flag
// still stands; it deletes none of that flag and sends nine requests
// like any hold after a won one, and the parked release, opened, leaves
// the new hold's flag where it is.
func TestReleaseBesideTheNextAcquire(t *testing.T) {
	clouds, parked, recs := parkedClouds(5)
	cfg := fastCfg("d1")
	cfg.RefreshInterval = time.Hour // no renewal inside these holds
	m := New(clouds, cfg)
	counts := func() (sum cloudsim.CallCounts) {
		for _, r := range recs {
			sum = sum.Plus(r.Counts())
		}
		return sum
	}
	prev := acquireWithin(t, m)
	<-prev.round.chains.Done() // the first hold's shed has landed
	for i := 1; i <= 4; i++ {
		v, done := parkRelease(t, parked, prev)
		if prev.Valid() {
			t.Fatal("a released lock is still valid")
		}
		before := counts()
		next := acquireWithin(t, m)
		<-next.round.chains.Done()
		if got := counts().Minus(before); got != (cloudsim.CallCounts{Upload: 3, List: 3, Delete: 0}) {
			t.Errorf("hold %d: its acquisition beside the parked release sent %+v, want 3 uploads + 3 lists", i, got)
		}
		if !next.Valid() {
			t.Fatalf("hold %d is not valid", i)
		}
		if !slices.Equal(winners(next), winners(prev)) {
			t.Fatalf("hold %d was won on %v, the one before it on %v", i, winners(next), winners(prev))
		}
		before = counts()
		unpark(t, v, done)
		if got := counts().Minus(before); got != (cloudsim.CallCounts{Delete: 3}) {
			t.Errorf("hold %d: the earlier release sent %+v, want its 3 deletes", i, got)
		}
		keepsFlag(t, clouds, next)
		prev = next
	}
	before := counts()
	if err := prev.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := counts().Minus(before); got != (cloudsim.CallCounts{Delete: 3}) {
		t.Errorf("the last release sent %+v, want 3 deletes of its own flag", got)
	}
	if left := lockDirNames(t, clouds); len(left) != 0 {
		t.Errorf("flags left after the last release: %v", left)
	}
}

// The same overlap with a second device contending on the clouds:
// every win, of either device, finds no other lock valid, and no parked
// release deletes a flag of the hold won beside it.
func TestReleaseBesideTheNextAcquireExcludes(t *testing.T) {
	clouds, parked, _ := parkedClouds(5)
	bare := make([]cloud.Interface, len(parked))
	for i, p := range parked {
		bare[i] = p.Interface
	}
	var (
		mu    sync.Mutex
		locks []*Lock
	)
	// won records a won lock and fails the test if another was valid.
	won := func(l *Lock) {
		mu.Lock()
		defer mu.Unlock()
		for _, o := range locks {
			if o.Valid() {
				t.Errorf("%s won while %s held a valid lock", l.mgr.cfg.Device, o.mgr.cfg.Device)
			}
		}
		locks = append(locks, l)
	}
	cfgFor := func(device string) Config {
		cfg := fastCfg(device)
		cfg.RefreshInterval = time.Hour
		return cfg
	}
	a, b := New(clouds, cfgFor("a")), New(bare, cfgFor("b"))

	stop := make(chan struct{})
	contender := make(chan int, 1)
	go func() {
		wins := 0
		defer func() { contender <- wins }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			l, err := b.Acquire(ctx)
			cancel()
			if err != nil {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("b: %v", err)
					return
				}
				continue
			}
			won(l)
			time.Sleep(time.Millisecond)
			if err := l.Release(context.Background()); err != nil {
				t.Errorf("b: %v", err)
				return
			}
			wins++
		}
	}()

	acquire := func() *Lock {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		l, err := a.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		won(l)
		return l
	}
	prev := acquire()
	for i := 0; i < 4; i++ {
		<-prev.round.chains.Done()
		v, done := parkRelease(t, parked, prev)
		next := acquire()
		unpark(t, v, done)
		<-next.round.chains.Done()
		keepsFlag(t, bare, next)
		prev = next
	}
	if err := prev.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Once a's last release has ended, b wins.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		last := locks[len(locks)-1].mgr
		mu.Unlock()
		if last == b || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if <-contender == 0 {
		t.Error("the contender never won once the holder had released")
	}
}

// A hold not yet released, and the same Manager's next round beside it,
// as when a device's next pass contends while the last hold's tail
// still waits on the commit's metadata writes: the round meets a second
// device's flags on every cloud, loses and withdraws, and the earlier
// hold keeps its flag on every cloud of its quorum — the withdraw
// deletes only what its own round uploaded — until its own Release.
func TestWithdrawBesideAnUnreleasedHoldKeepsItsFlags(t *testing.T) {
	clouds, _ := recordedClouds(5)
	cfg := fastCfg("d1")
	cfg.RefreshInterval = time.Hour // no renewal inside the hold
	cfg.Expiry = time.Hour          // the second device's flags stay live
	cfg.MaxAttempts = 1
	m := New(clouds, cfg)
	held := acquireWithin(t, m)
	<-held.round.chains.Done() // the hold's shed has landed
	for _, c := range clouds {
		if err := c.Upload(context.Background(), cloud.JoinPath(DefaultLockDir, "lock_d2_1.1"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Acquire(context.Background()); !errors.Is(err, ErrNotAcquired) {
		t.Fatalf("the round beside the hold: %v, want it lost to d2", err)
	}
	keepsFlag(t, clouds, held)
	if !held.Valid() {
		t.Error("the unreleased hold turned invalid")
	}
	for cloudName, names := range lockDirNames(t, clouds) {
		for _, name := range names {
			if name != held.name && name != "lock_d2_1.1" {
				t.Errorf("%s keeps %s, a flag of the withdrawn round", cloudName, name)
			}
		}
	}
	if err := held.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	for cloudName, names := range lockDirNames(t, clouds) {
		if !slices.Equal(names, []string{"lock_d2_1.1"}) {
			t.Errorf("%s keeps %v after the release, want only d2's flag", cloudName, names)
		}
	}
}
