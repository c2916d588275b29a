package vclock

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestRealNowAdvances(t *testing.T) {
	c := Real{}
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if !b.After(a) {
		t.Fatalf("Real.Now did not advance: %v then %v", a, b)
	}
}

func TestRealSleepWaits(t *testing.T) {
	c := Real{}
	start := time.Now()
	c.Sleep(5 * time.Millisecond)
	if got := time.Since(start); got < 4*time.Millisecond {
		t.Fatalf("Real.Sleep returned too fast: %v", got)
	}
}

// TestWorldSleepTakesNoWallTime: an hour of the world's time passes in
// one step, at once, to the nanosecond.
func TestWorldSleepTakesNoWallTime(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewWorld(start)
	wall := time.Now()
	c.Sleep(time.Hour)
	if took := time.Since(wall); took > time.Second {
		t.Errorf("a world sleep of 1h took %v of wall time", took)
	}
	if got := c.Now().Sub(start); got != time.Hour {
		t.Errorf("world at %v after a 1h sleep, want 1h", got)
	}
}

// TestWorldNowStandsStill: wall time passing moves nothing; only a
// step does.
func TestWorldNowStandsStill(t *testing.T) {
	c := NewWorld(time.Unix(0, 0))
	a := c.Now()
	time.Sleep(5 * time.Millisecond)
	if b := c.Now(); !b.Equal(a) {
		t.Fatalf("world moved from %v to %v with nothing armed", a, b)
	}
}

// TestWorldAfterFires: an After channel receives the instant it was
// due.
func TestWorldAfterFires(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewWorld(start)
	select {
	case at := <-c.After(time.Second):
		if !at.Equal(start.Add(time.Second)) {
			t.Errorf("After(1s) fired at %v, want 1s", at.Sub(start))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("world After(1s) did not fire within 2s of wall time")
	}
}

// TestWorldZeroSleepReturns: a wait that is already due returns at once
// and steps nothing.
func TestWorldZeroSleepReturns(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewWorld(start)
	c.Sleep(0)
	c.Sleep(-time.Second)
	<-c.After(0)
	if got := c.Now(); !got.Equal(start) {
		t.Errorf("world at %v after waits already due, want %v", got, start)
	}
}

// TestWorldSpinBeforeEarlierDeadline: a goroutine that computes keeps
// the world from stepping, however long it computes, so a deadline
// armed before the computation began fires only after it ended.
func TestWorldSpinBeforeEarlierDeadline(t *testing.T) {
	c := NewWorld(time.Unix(0, 0))
	fired := make(chan time.Time, 1)
	c.AfterFunc(time.Millisecond, func() { fired <- c.Now() })
	spun := make(chan bool)
	go func() {
		// A bounded spin: it runs for far longer than the stepper needs
		// to take a snapshot, without parking once.
		x := uint64(1)
		for i := 0; i < 50_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		select {
		case <-fired:
			spun <- false
		default:
			spun <- x != 0
		}
	}()
	if !<-spun {
		t.Fatal("the 1 ms deadline fired while a goroutine was computing")
	}
	if at := <-fired; !at.Equal(time.Unix(0, 0).Add(time.Millisecond)) {
		t.Fatalf("fired at %v, want exactly 1ms", at.Sub(time.Unix(0, 0)))
	}
}

// TestWorldSleepersWakeInDeadlineOrder: sleepers armed in any order wake
// in the order of their deadlines, each at its exact virtual instant.
func TestWorldSleepersWakeInDeadlineOrder(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewWorld(start)
	type wake struct {
		d  time.Duration
		at time.Duration
	}
	var (
		mu    sync.Mutex
		wakes []wake
		wg    sync.WaitGroup
	)
	for _, d := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second, 2 * time.Second, 4 * time.Second} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sleep(d)
			mu.Lock()
			wakes = append(wakes, wake{d, c.Now().Sub(start)})
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(wakes) != 5 {
		t.Fatalf("%d wakes, want 5", len(wakes))
	}
	for i, w := range wakes {
		if want := time.Duration(i+1) * time.Second; w.d != want || w.at != want {
			t.Errorf("wake %d: sleeper of %v woke at %v, want the sleeper of %v at %v", i, w.d, w.at, want, want)
		}
	}
	if got := c.Now().Sub(start); got != 5*time.Second {
		t.Errorf("world at %v after the last wake, want 5s", got)
	}
}

// TestWorldWithTimeout: the context ends at the virtual deadline, with
// the error context.WithTimeout gives, and not before it.
func TestWorldWithTimeout(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewWorld(start)
	ctx, cancel := WithTimeout(c, context.Background(), 10*time.Second)
	defer cancel()
	go c.Sleep(9 * time.Second)
	c.Sleep(9*time.Second + time.Millisecond)
	if err := ctx.Err(); err != nil {
		t.Fatalf("Err = %v at 9.001s, want nil before the 10s deadline", err)
	}
	<-ctx.Done()
	if got := c.Now().Sub(start); got != 10*time.Second {
		t.Errorf("context ended at %v, want 10s", got)
	}
	if err := ctx.Err(); err != context.DeadlineExceeded {
		t.Errorf("Err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWorldWithTimeoutStop: cancelling disarms the deadline: the
// context ends with context.Canceled and keeps that error past the
// deadline.
func TestWorldWithTimeoutStop(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewWorld(start)
	ctx, cancel := WithTimeout(c, context.Background(), 10*time.Second)
	c.Sleep(time.Second)
	cancel()
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("Err = %v after cancel, want context.Canceled", err)
	}
	c.mu.Lock()
	armed := len(c.waiters)
	c.mu.Unlock()
	if armed != 0 {
		t.Errorf("%d waiters left after cancel, want the deadline disarmed", armed)
	}
	c.Sleep(20 * time.Second)
	if err := ctx.Err(); err != context.Canceled {
		t.Errorf("Err = %v past the deadline, want context.Canceled", err)
	}
}

// TestRealWithTimeout: on Real the helper is context.WithTimeout, and
// its error is one that obs and the health breakers count as the
// caller's (a cancellation), not as a fault of the cloud.
func TestRealWithTimeout(t *testing.T) {
	ctx, cancel := WithTimeout(Real{}, context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Error("Real WithTimeout has no deadline")
	}
	<-ctx.Done()
	if err := ctx.Err(); err != context.DeadlineExceeded {
		t.Errorf("Err = %v, want context.DeadlineExceeded", err)
	}
	ctx, cancel = WithTimeout(Real{}, context.Background(), time.Hour)
	cancel()
	if err := ctx.Err(); err != context.Canceled {
		t.Errorf("Err after cancel = %v, want context.Canceled", err)
	}
}

// TestManualAfterFunc: an AfterFunc fires at its deadline, and one
// stopped in time never does.
func TestManualAfterFunc(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	fired := make(chan struct{})
	c.AfterFunc(time.Second, func() { close(fired) })
	stop := c.AfterFunc(time.Second, func() { t.Error("stopped AfterFunc fired") })
	if !stop() {
		t.Fatal("stop reported the AfterFunc already fired")
	}
	c.Advance(time.Second)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("AfterFunc did not fire at its deadline")
	}
	if stop() {
		t.Error("a second stop reported it stopped the call")
	}
}

func TestManualSleepReleasesOnAdvance(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	var wg sync.WaitGroup
	released := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Sleep(10 * time.Second)
		close(released)
	}()
	waitForWaiters(t, c, 1)
	select {
	case <-released:
		t.Fatal("sleeper released before Advance")
	default:
	}
	c.Advance(9 * time.Second)
	select {
	case <-released:
		t.Fatal("sleeper released too early")
	case <-time.After(10 * time.Millisecond):
	}
	c.Advance(time.Second)
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("sleeper not released after full Advance")
	}
	wg.Wait()
}

func TestManualAfterImmediateForNonPositive(t *testing.T) {
	c := NewManual(time.Unix(100, 0))
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
	select {
	case <-c.After(-time.Second):
	default:
		t.Fatal("After(-1s) did not fire immediately")
	}
}

func TestManualAdvanceReleasesInBatches(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	ch1 := c.After(1 * time.Second)
	ch2 := c.After(5 * time.Second)
	c.Advance(2 * time.Second)
	select {
	case <-ch1:
	case <-time.After(time.Second):
		t.Fatal("first waiter not released")
	}
	select {
	case <-ch2:
		t.Fatal("second waiter released early")
	default:
	}
	c.Advance(3 * time.Second)
	select {
	case <-ch2:
	case <-time.After(time.Second):
		t.Fatal("second waiter not released")
	}
}

func TestManualNow(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewManual(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", c.Now(), start)
	}
	c.Advance(90 * time.Second)
	if want := start.Add(90 * time.Second); !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func waitForWaiters(t *testing.T, c *Manual, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.PendingWaiters() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d pending waiters", n)
}
