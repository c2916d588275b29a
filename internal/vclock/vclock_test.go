package vclock

import (
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

func TestScaledSpeedsUpSleep(t *testing.T) {
	c := NewScaled(1000)
	start := time.Now()
	c.Sleep(time.Second) // should take ~1ms of wall time
	wall := time.Since(start)
	if wall > 200*time.Millisecond {
		t.Fatalf("scaled sleep of 1s took %v wall time; want ~1ms", wall)
	}
}

func TestScaledNowRunsFast(t *testing.T) {
	c := NewScaled(1000)
	a := c.Now()
	time.Sleep(5 * time.Millisecond)
	b := c.Now()
	if sim := b.Sub(a); sim < time.Second {
		t.Fatalf("scaled clock advanced only %v of simulated time in 5ms wall", sim)
	}
}

func TestScaledAfterFires(t *testing.T) {
	c := NewScaled(1000)
	select {
	case <-c.After(time.Second):
	case <-time.After(2 * time.Second):
		t.Fatal("scaled After(1s) did not fire within 2s wall time")
	}
}

func TestScaledZeroSleepReturns(t *testing.T) {
	c := NewScaled(10)
	done := make(chan struct{})
	go func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep(0) blocked")
	}
}

func TestNewScaledPanicsOnSubUnity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewScaled(0.5) did not panic")
		}
	}()
	NewScaled(0.5)
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
