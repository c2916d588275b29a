// Package vclock provides the clock abstraction that lets the
// simulation substrate run in virtual time while production code uses
// the real wall clock.
//
// All components of UniDrive that wait for time to pass — the bandwidth
// simulator, lock refresh timers, the periodic sync loop, the detached
// deadlines of a lock hold (WithTimeout) — accept a Clock, so that
// experiments covering simulated hours complete in seconds of wall time
// without changing the concurrency structure.
//
// There are three clocks. Real is the wall clock. Manual moves only
// when its test calls Advance. World moves by itself, but only when
// nothing in the process can run: its virtual time steps to the
// earliest deadline once every goroutine is parked (testing/synctest's
// "durably blocked", judged process-wide from one runtime.Stack
// snapshot). Client CPU is therefore free in a World's virtual time:
// hashing, coding and copying take no simulated seconds, however slow
// or loaded the host, and only the modelled network and the timers of
// the protocols move the clock.
package vclock

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout UniDrive.
//
// Now reports the current time in the clock's own timeline. Sleep
// blocks the calling goroutine for d of the clock's time. After
// returns a channel that receives once d of the clock's time elapsed.
// AfterFunc calls f in its own goroutine once d of the clock's time
// elapsed; stop cancels that call and reports whether it did.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	After(d time.Duration) <-chan time.Time
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// WithTimeout is context.WithTimeout on clk's time: the returned
// context is cancelled d of clk's time from now, when its Err is
// context.DeadlineExceeded, or by cancel, whichever comes first. On
// Real it is context.WithTimeout itself. On the other clocks the
// context's Deadline stays its parent's, because a deadline in virtual
// time means nothing to code that compares it with the wall clock.
func WithTimeout(clk Clock, parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if _, ok := clk.(Real); ok {
		return context.WithTimeout(parent, d)
	}
	ctx, cancel := context.WithCancelCause(parent)
	stop := clk.AfterFunc(d, func() { cancel(context.DeadlineExceeded) })
	return timeoutCtx{ctx}, func() {
		stop()
		cancel(nil)
	}
}

// timeoutCtx reports a virtual deadline as context.DeadlineExceeded,
// the error context.WithTimeout gives; a context derived from it sees
// context.Canceled, with context.DeadlineExceeded as its Cause.
type timeoutCtx struct{ context.Context }

func (c timeoutCtx) Err() error {
	err := c.Context.Err()
	if err != nil && context.Cause(c.Context) == context.DeadlineExceeded {
		return context.DeadlineExceeded
	}
	return err
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

// AfterFunc calls f in its own goroutine after d of wall time.
func (Real) AfterFunc(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }

// Manual is a deterministic Clock for unit tests: time advances only
// when Advance is called. Sleepers and After-waiters are released when
// the manual time passes their deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter // in the order they were armed
	// version counts the waiters armed and the steps taken: a World
	// steps only if nothing of either happened since its snapshot.
	version uint64
	// released is how many waiters the latest step released.
	released int
	// armed, if set, is called (c.mu held) when After or AfterFunc arms
	// a waiter: a World starts its stepper.
	armed func()
}

var _ Clock = (*Manual)(nil)

// waiter is one Sleep, After or AfterFunc: at its deadline it sends on
// ch, or calls f in a goroutine of its own.
type waiter struct {
	deadline time.Time
	ch       chan time.Time
	f        func()
}

func (w *waiter) fire(now time.Time) {
	if w.f != nil {
		go w.f()
		return
	}
	w.ch <- now
}

// NewManual returns a Manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now returns the clock's time.
func (c *Manual) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep blocks until the clock passes now+d.
func (c *Manual) Sleep(d time.Duration) {
	<-c.After(d)
}

// After returns a channel that fires once the clock reaches now+d.
func (c *Manual) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arm(d, nil).ch
}

// AfterFunc calls f in its own goroutine once the clock reaches now+d.
func (c *Manual) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.arm(d, f)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		i := slices.Index(c.waiters, w)
		if i >= 0 {
			c.waiters = slices.Delete(c.waiters, i, i+1)
		}
		return i >= 0
	}
}

// arm registers a waiter d from now and returns it, or fires it at
// once if d is not positive. c.mu is held.
func (c *Manual) arm(d time.Duration, f func()) *waiter {
	w := &waiter{deadline: c.now.Add(d), f: f}
	if f == nil {
		w.ch = make(chan time.Time, 1)
	}
	if d <= 0 {
		w.fire(c.now)
		return w
	}
	c.waiters = append(c.waiters, w)
	c.version++
	if c.armed != nil {
		c.armed()
	}
	return w
}

// Advance moves the manual clock forward by d, releasing every waiter
// whose deadline has been reached.
func (c *Manual) Advance(d time.Duration) {
	c.mu.Lock()
	c.advanceTo(c.now.Add(d))
}

// advanceTo moves the time to at and releases every waiter whose
// deadline it reached, in the order they were armed. c.mu is held; it
// is released before the waiters fire.
func (c *Manual) advanceTo(at time.Time) {
	c.now = at
	var fired []*waiter
	c.waiters = slices.DeleteFunc(c.waiters, func(w *waiter) bool {
		due := !w.deadline.After(at)
		if due {
			fired = append(fired, w)
		}
		return due
	})
	c.version++
	c.released = len(fired)
	c.mu.Unlock()
	for _, w := range fired {
		w.fire(at)
	}
}

// PendingWaiters reports how many Sleep, After and AfterFunc waiters
// the clock has not released yet. Tests use it to synchronize with
// goroutines that should have reached their wait point.
func (c *Manual) PendingWaiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// World is a Clock whose virtual time steps by itself: whenever no
// goroutine of the process is running, runnable or in a system call,
// its stepper moves Now to the earliest deadline armed on it and
// releases the waiters due then. Work between two waits takes no
// virtual time at all, so a World's timings depend on what its
// goroutines wait for and never on how fast the host runs them. It is
// a Manual's waiter set with a stepper; Advance moves it by hand too.
//
// Everything that waits inside a world must wait on the world's clock,
// on another goroutine of the process, or on nothing: a goroutine
// parked on a real timer or a real socket counts as parked, and the
// world steps past it. The stepper runs only while a waiter is armed;
// the steppers of other worlds do not keep a world from stepping.
type World struct {
	Manual
	stepping bool // the stepper runs; guarded by mu
}

var _ Clock = (*World)(nil)

// NewWorld returns a World clock starting at start.
func NewWorld(start time.Time) *World {
	c := &World{Manual: Manual{now: start}}
	c.armed = c.startStepper
	return c
}

// Sleep blocks for d of the world's time. A sleeper that the latest
// step released alone looks at the world itself and, if it finds every
// other goroutine parked, steps it: when one goroutine waits at a time
// that spares the stepper's round trip, and when several were released
// together it spares their snapshots, which would find one another
// busy.
func (c *World) Sleep(d time.Duration) {
	c.mu.Lock()
	c.armed = nil // arm without starting the stepper: the sleeper looks first
	w := c.arm(d, nil)
	c.armed = c.startStepper
	version, alone := c.version, c.released <= 1
	c.mu.Unlock()
	if d > 0 && alone && parked() {
		c.mu.Lock()
		if c.version == version {
			c.advanceTo(c.next())
		} else {
			c.mu.Unlock()
		}
	}
	select {
	case <-w.ch:
		return
	default:
	}
	c.mu.Lock()
	c.startStepper()
	c.mu.Unlock()
	<-w.ch
}

// startStepper starts the stepper if a waiter is armed and it is not
// running. c.mu is held.
func (c *World) startStepper() {
	if !c.stepping && len(c.waiters) > 0 {
		c.stepping = true
		go c.step()
	}
}

// step is the world's stepper: as long as a waiter is armed, it takes
// snapshots of the process's goroutines and, once one finds every
// goroutine parked and no waiter was armed or step taken since it
// began, moves the time to the earliest deadline. A busy snapshot makes
// it wait a little longer before the next one, because each stops the
// world; after a step it looks again at once, since the goroutines it
// released usually park again within microseconds.
func (c *World) step() {
	busy := 0
	for {
		c.mu.Lock()
		if len(c.waiters) == 0 {
			c.stepping = false
			c.mu.Unlock()
			return
		}
		version := c.version
		c.mu.Unlock()
		if !parked() {
			pause(busy)
			busy++
			continue
		}
		c.mu.Lock()
		if c.version != version || len(c.waiters) == 0 {
			c.mu.Unlock()
			continue
		}
		c.advanceTo(c.next())
		busy = 0
	}
}

// next is the earliest deadline armed. c.mu is held, and a waiter is
// armed.
func (c *World) next() time.Time {
	next := c.waiters[0].deadline
	for _, w := range c.waiters[1:] {
		if w.deadline.Before(next) {
			next = w.deadline
		}
	}
	return next
}

// pause waits before the stepper's next snapshot after busy busy ones
// in a row: it yields at first, then sleeps up to a millisecond.
func pause(busy int) {
	if busy < 8 {
		runtime.Gosched()
		return
	}
	d := time.Duration(busy-7) * 50 * time.Microsecond
	time.Sleep(min(d, time.Millisecond))
}

// stackBuf is the snapshot buffer, grown to fit the largest dump so
// far; steppers take turns with it.
var (
	stackMu  sync.Mutex
	stackBuf = make([]byte, 64<<10)
)

// parked reports whether every goroutine of the process except the
// caller and the steppers of worlds is parked, judged from one
// runtime.Stack snapshot.
func parked() bool {
	stackMu.Lock()
	defer stackMu.Unlock()
	n := runtime.Stack(stackBuf, true)
	for n == len(stackBuf) {
		stackBuf = make([]byte, 2*len(stackBuf))
		n = runtime.Stack(stackBuf, true)
	}
	// The caller is the first goroutine of the dump.
	for _, g := range bytes.Split(stackBuf[:n], []byte("\n\n"))[1:] {
		stepper := bytes.Contains(g, stepperFrame)
		switch {
		case stepper && (bytes.Contains(g, pauseFrame) || bytes.Contains(g, parkedFrame)):
		case stepper, bytes.Contains(g, parkedFrame), !durablyBlocked(g):
			return false
		}
	}
	return true
}

// A world's stepper does not count in a goroutine dump while it pauses
// or looks (stepperFrame with pauseFrame or parkedFrame); anywhere else
// it may hold its world's lock or be releasing waiters, some not yet
// runnable. A sleeper that looks, or waits for the snapshot buffer to
// (parkedFrame), is not parked: it is about to step or park.
var (
	stepperFrame = []byte("vclock.(*World).step(")
	pauseFrame   = []byte("vclock.pause(")
	parkedFrame  = []byte("vclock.parked(")
)

// durablyBlocked reports whether the goroutine dump g, as
// runtime.Stack prints it ("goroutine 7 [chan receive, 2 minutes]:
// ..."), is parked in a wait that only another goroutine, a timer or
// the network can end.
func durablyBlocked(g []byte) bool {
	_, rest, ok := bytes.Cut(g, []byte(" ["))
	if !ok {
		return false
	}
	state, _, _ := bytes.Cut(rest, []byte("]"))
	state, _, _ = bytes.Cut(state, []byte(","))
	state = bytes.TrimSuffix(state, []byte(" (scan)"))
	return parkedStates[string(state)]
}

// parkedStates are the wait reasons of a parked goroutine. Running,
// runnable, in a system call, preempted or held up by the garbage
// collector are not among them.
var parkedStates = map[string]bool{
	"chan receive": true, "chan send": true, "select": true, "select (no cases)": true,
	"chan receive (nil chan)": true, "chan send (nil chan)": true,
	"sync.Cond.Wait": true, "sync.Mutex.Lock": true, "sync.RWMutex.RLock": true,
	"sync.RWMutex.Lock": true, "sync.WaitGroup.Wait": true, "semacquire": true,
	"sleep": true, "IO wait": true, "finalizer wait": true, "force gc (idle)": true,
	"GC sweep wait": true, "GC scavenge wait": true, "GC worker (idle)": true,
}
