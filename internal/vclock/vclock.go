// Package vclock provides a clock abstraction that lets the simulation
// substrate run in scaled ("fast-forward") time while production code
// uses the real wall clock.
//
// All components of UniDrive that wait for time to pass — the bandwidth
// simulator, lock refresh timers, the periodic sync loop — accept a
// Clock so that experiments covering simulated hours complete in
// seconds of wall time without changing the concurrency structure.
package vclock

import (
	"runtime"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout UniDrive.
//
// Now reports the current time in the clock's own timeline. Sleep
// blocks the calling goroutine for d of the clock's time. After
// returns a channel that receives once d of the clock's time elapsed.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	After(d time.Duration) <-chan time.Time
}

// Real is a Clock backed by the operating-system wall clock.
type Real struct{}

var _ Clock = Real{}

// Now returns the current wall-clock time.
func (Real) Now() time.Time { return time.Now() }

// Sleep pauses the calling goroutine for d.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After returns a channel that fires after d of wall time.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Scaled is a Clock in which durations shrink by its factor: sleeping
// one simulated second occupies 1/factor seconds of wall time. Now
// returns a synthetic timeline that starts at the epoch the clock was
// created with and advances factor times faster than the wall clock.
//
// A Scaled clock preserves the interleaving behaviour of concurrent
// transfers (they still genuinely block and race) while letting
// experiments that simulate minutes of transfer finish in tens of
// milliseconds.
type Scaled struct {
	factor    float64
	wallStart time.Time
	simStart  time.Time
}

var _ Clock = (*Scaled)(nil)

// NewScaled returns a clock that runs factor times faster than wall
// time. factor must be >= 1; NewScaled panics otherwise, because a
// sub-unity factor silently turns fast tests into slow ones.
func NewScaled(factor float64) *Scaled {
	if factor < 1 {
		panic("vclock: scale factor must be >= 1")
	}
	now := time.Now()
	return &Scaled{factor: factor, wallStart: now, simStart: now}
}

// Now returns the current simulated time.
func (c *Scaled) Now() time.Time {
	wall := time.Since(c.wallStart)
	return c.simStart.Add(time.Duration(float64(wall) * c.factor))
}

// coarseSleep is the wall-clock granularity below which time.Sleep
// cannot be trusted (measured ~1–2 ms on typical virtualized hosts).
// Sleeps shorter than this are finished by yielding-spin so that the
// scale factor does not multiply the OS timer slack into large
// simulated-time errors.
const coarseSleep = 2 * time.Millisecond

// Sleep pauses for d of simulated time (d/factor of wall time). Short
// waits are completed with a yielding spin because OS sleep overhead,
// multiplied by the scale factor, would otherwise dominate simulated
// timings.
func (c *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	wall := c.scaleDown(d)
	deadline := time.Now().Add(wall)
	if wall > coarseSleep {
		time.Sleep(wall - coarseSleep)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// After returns a channel that fires after d of simulated time.
func (c *Scaled) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	time.AfterFunc(c.scaleDown(d), func() { ch <- c.Now() })
	return ch
}

func (c *Scaled) scaleDown(d time.Duration) time.Duration {
	scaled := time.Duration(float64(d) / c.factor)
	if scaled < time.Microsecond && d > 0 {
		// Never round a positive wait down to a busy spin.
		scaled = time.Microsecond
	}
	return scaled
}

// Manual is a deterministic Clock for unit tests: time advances only
// when Advance is called. Sleepers and After-waiters are released when
// the manual time passes their deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualWaiter
}

type manualWaiter struct {
	deadline time.Time
	ch       chan time.Time
}

var _ Clock = (*Manual)(nil)

// NewManual returns a Manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now returns the current manual time.
func (c *Manual) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep blocks until Advance moves the clock past now+d.
func (c *Manual) Sleep(d time.Duration) {
	<-c.After(d)
}

// After returns a channel that fires once Advance moves the clock to
// or past now+d.
func (c *Manual) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &manualWaiter{deadline: c.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		w.ch <- c.now
		return w.ch
	}
	c.waiters = append(c.waiters, w)
	return w.ch
}

// Advance moves the manual clock forward by d, releasing every waiter
// whose deadline has been reached.
func (c *Manual) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	remaining := c.waiters[:0]
	var fired []*manualWaiter
	for _, w := range c.waiters {
		if !w.deadline.After(now) {
			fired = append(fired, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	c.waiters = remaining
	c.mu.Unlock()
	for _, w := range fired {
		w.ch <- now
	}
}

// PendingWaiters reports how many Sleep/After calls are currently
// blocked on the clock. Tests use it to synchronize with goroutines
// that should have reached their wait point.
func (c *Manual) PendingWaiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
