package core

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"time"

	"unidrive/internal/localfs"
)

// loopIntervals are the event loop's pacing periods. They are derived
// lazily from the Config on every loop turn — not in fillDefaults — so
// they track a SyncInterval adjusted after New (tests and tools do
// this).
type loopIntervals struct {
	debounce    time.Duration // settle window after the last event
	debounceMax time.Duration // hard bound from the first event: 10×debounce
	remotePoll  time.Duration // remote observer stamp-poll period: SyncInterval
	fullRescan  time.Duration // safety-net full-scan period
	backoffBase time.Duration // first failure backoff: SyncInterval
	backoffMax  time.Duration // backoff cap: 16×backoffBase
}

func (c *Client) resolveIntervals(watching bool) loopIntervals {
	iv := loopIntervals{
		debounce:    c.cfg.DebounceWindow,
		remotePoll:  c.cfg.SyncInterval,
		fullRescan:  c.cfg.FullRescanInterval,
		backoffBase: c.cfg.SyncInterval,
	}
	if iv.debounce <= 0 {
		iv.debounce = min(c.cfg.SyncInterval/4, 500*time.Millisecond)
		if iv.debounce <= 0 {
			iv.debounce = time.Millisecond
		}
	}
	iv.debounceMax = 10 * iv.debounce
	if iv.fullRescan <= 0 {
		iv.fullRescan = c.cfg.SyncInterval
		if watching {
			iv.fullRescan = 10 * c.cfg.SyncInterval
		}
	}
	iv.backoffMax = 16 * iv.backoffBase
	return iv
}

// syncLoop is RunLoop's state: what is waiting to be looked at, when
// each kind of pass is next due, and how the last passes went.
type syncLoop struct {
	c       *Client
	onError func(error)
	// rng jitters the failure backoff.
	rng *rand.Rand

	// watch is the folder's change notifier; events is its channel, nil
	// in polling mode and once the watcher has died (a nil channel
	// blocks forever in select).
	watch  localfs.Watch
	events <-chan localfs.WatchEvent

	// dirty holds the paths the watcher reported since the last pass
	// that looked at them. settleAt (last event + debounce) and holdAt
	// (first event + debounceMax) say when they are due; both are zero
	// while the set is empty.
	dirty            map[string]struct{}
	settleAt, holdAt time.Time

	nextRescan, nextRemote time.Time

	// failures counts consecutive failed passes; no pass runs before
	// retryAt while it is non-zero.
	failures int
	retryAt  time.Time
}

// RunLoop drives continuous sync until the context is cancelled.
//
// When the folder supports change notifications (localfs.Watchable)
// and DisableWatch is unset, the loop runs event-driven: watcher
// events accumulate in a debounced dirty set scanned with
// SyncDirty (O(changes)); a remote observer polls the cloud version
// stamps every SyncInterval; and a low-frequency full rescan
// (FullRescanInterval) reconciles anything a lossy watcher dropped.
// Watcher overflow — or the watcher dying — escalates to an immediate
// full rescan, and a dead watcher degrades the loop to polling mode.
//
// In polling mode the loop runs a full SyncOnce every SyncInterval,
// the paper's original τ-periodic design.
//
// Either way the first pass is an immediate full one — a restarted
// device converges right away instead of sitting dark for an
// interval. Errors from individual passes are delivered to onError
// (which may be nil) and do not stop the loop; consecutive failures
// back the loop off exponentially (jittered, capped at 16×SyncInterval,
// reset on the first success). Config.OnPass, when set, receives the
// report of every successful pass that moved data or metadata.
func (c *Client) RunLoop(ctx context.Context, onError func(error)) {
	// Jitter is deterministic per device so fleet-scale tests are
	// reproducible; across devices the seeds differ, which is the point
	// of jitter (avoid synchronized retry stampedes).
	h := fnv.New64a()
	_, _ = h.Write([]byte(c.cfg.Device))
	l := &syncLoop{
		c:       c,
		onError: onError,
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
		dirty:   make(map[string]struct{}),
	}
	if wf, ok := c.folder.(localfs.Watchable); ok && !c.cfg.DisableWatch {
		if w, err := wf.Watch(); err == nil {
			l.watch, l.events = w, w.Events()
			defer func() { _ = w.Close() }()
		}
	}
	l.gaugeWatching()
	// Fold the delta log into the base on the way out, so the next
	// start reads one file.
	defer func() { _ = c.SaveState() }()

	now := c.cfg.Clock.Now()
	l.nextRescan = now // immediate first full pass
	l.nextRemote = now.Add(l.intervals().remotePoll)
	for ctx.Err() == nil {
		if !l.runDue(ctx) {
			l.wait(ctx)
		}
	}
}

func (l *syncLoop) watching() bool { return l.events != nil }

func (l *syncLoop) intervals() loopIntervals { return l.c.resolveIntervals(l.watching()) }

func (l *syncLoop) gaugeWatching() {
	v := 0.0
	if l.watching() {
		v = 1.0
	}
	l.c.cfg.Obs.Gauge("sync.loop.watching").Set(v)
}

// runDue runs the pass that is due now — full rescan before dirty paths
// before remote poll — and books its outcome. It reports false when
// nothing is due or the loop is waiting out a backoff.
func (l *syncLoop) runDue(ctx context.Context) bool {
	c, clk := l.c, l.c.cfg.Clock
	iv := l.intervals()
	now := clk.Now()
	// An overflowed watcher lost events; only a full rescan restores
	// the completeness the dirty set promises.
	if l.watching() && l.watch.Overflowed() {
		c.cfg.Obs.Counter("sync.watch.overflows").Inc()
		l.nextRescan = now
	}
	if l.backedOff(now) {
		return false
	}
	var rep SyncReport
	var err error
	switch {
	case !now.Before(l.nextRescan):
		if rep, err = c.SyncOnce(ctx); err == nil {
			// The full scan covered every path, dirty or not.
			l.takeDirty()
			l.nextRescan = clk.Now().Add(iv.fullRescan)
			l.nextRemote = clk.Now().Add(iv.remotePoll)
		}
	case l.dirtyDue(now):
		paths := l.takeDirty()
		if rep, err = c.SyncDirty(ctx, paths); err != nil && ctx.Err() == nil {
			// The scanner's baseline moved only past the events the
			// pass recorded, and those wait in the ChangedFileList:
			// re-mark the paths dirty so the retry, once the backoff
			// allows, reports the rest again.
			for _, p := range paths {
				l.dirty[p] = struct{}{}
			}
			l.settleAt, l.holdAt = clk.Now(), clk.Now()
		}
	case !now.Before(l.nextRemote):
		if rep, err = c.SyncRemote(ctx); err == nil {
			l.nextRemote = clk.Now().Add(iv.remotePoll)
		}
	default:
		return false
	}
	switch {
	case err == nil:
		l.failures = 0
		if c.cfg.OnPass != nil && (rep.LocalChanges > 0 || rep.CloudChanges > 0 || len(rep.Conflicts) > 0) {
			c.cfg.OnPass(rep)
		}
	case ctx.Err() == nil: // a cancelled pass is the loop ending, not a failure
		l.fail(err, iv)
	}
	return true
}

func (l *syncLoop) backedOff(now time.Time) bool {
	return l.failures > 0 && now.Before(l.retryAt)
}

func (l *syncLoop) dirtyDue(now time.Time) bool {
	return len(l.dirty) > 0 && (!now.Before(l.settleAt) || !now.Before(l.holdAt))
}

// takeDirty empties the dirty set and returns what it held.
func (l *syncLoop) takeDirty() []string {
	paths := make([]string, 0, len(l.dirty))
	for p := range l.dirty {
		paths = append(paths, p)
	}
	l.dirty = make(map[string]struct{})
	l.settleAt, l.holdAt = time.Time{}, time.Time{}
	return paths
}

// fail books a failed pass: the next one waits out a jittered
// exponential backoff.
func (l *syncLoop) fail(err error, iv loopIntervals) {
	c := l.c
	l.failures++
	if errors.Is(err, ErrInsufficientCapacity) {
		// Quota exhaustion is not transient: a jittered retry
		// re-fails identically until space returns (the user frees
		// data, or the capacity tracker's probe re-admits a cloud).
		// Wait a full safety-net interval instead of hot-looping
		// through the exponential backoff ladder.
		c.cfg.Obs.Counter("sync.loop.quota_blocked").Inc()
		l.retryAt = c.cfg.Clock.Now().Add(iv.fullRescan)
	} else {
		c.cfg.Obs.Counter("sync.loop.backoffs").Inc()
		delay := iv.backoffBase
		for i := 1; i < l.failures && delay < iv.backoffMax; i++ {
			delay *= 2
		}
		delay = min(delay, iv.backoffMax)
		// Jitter to [0.5, 1.5)×delay.
		delay = delay/2 + time.Duration(l.rng.Int63n(int64(delay)))
		l.retryAt = c.cfg.Clock.Now().Add(delay)
	}
	if l.onError != nil {
		l.onError(err)
	}
}

// wait sleeps until the earliest deadline or the next watcher event,
// which it absorbs into the dirty set.
func (l *syncLoop) wait(ctx context.Context) {
	clk := l.c.cfg.Clock
	now := clk.Now()
	deadline := l.nextRescan
	if l.nextRemote.Before(deadline) {
		deadline = l.nextRemote
	}
	if len(l.dirty) > 0 {
		if l.settleAt.Before(deadline) {
			deadline = l.settleAt
		}
		if l.holdAt.Before(deadline) {
			deadline = l.holdAt
		}
	}
	if l.backedOff(now) && l.retryAt.After(deadline) {
		// No pass can run before retryAt anyway.
		deadline = l.retryAt
	}
	d := deadline.Sub(now)
	if d <= 0 {
		// A deadline became due since runDue looked (or backoff just
		// expired): turn again without sleeping.
		return
	}
	select {
	case <-ctx.Done():
	case <-clk.After(d):
	case ev, ok := <-l.events:
		if ok {
			iv, now := l.intervals(), clk.Now()
			if len(l.dirty) == 0 {
				l.holdAt = now.Add(iv.debounceMax)
			}
			l.settleAt = now.Add(iv.debounce)
		}
		// Take the burst that is already buffered with it before
		// sleeping again: one editor save can be dozens of events.
		for l.absorb(ev, ok) {
			select {
			case ev, ok = <-l.events:
			default:
				return
			}
		}
	}
}

// absorb marks one watcher event's path dirty. A closed channel means
// the watcher died: from here on only scans see changes, so the loop
// degrades to polling mode, starting with an immediate full rescan. It
// reports whether the watcher is still alive.
func (l *syncLoop) absorb(ev localfs.WatchEvent, ok bool) bool {
	if !ok {
		l.events = nil
		l.gaugeWatching()
		l.nextRescan = l.c.cfg.Clock.Now()
		return false
	}
	l.c.cfg.Obs.Counter("sync.watch.events").Inc()
	l.dirty[ev.Path] = struct{}{}
	return true
}
