package core

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"time"

	"unidrive/internal/localfs"
)

// loopIntervals are the event loop's resolved pacing knobs. They are
// derived lazily from the Config at RunLoop entry — not in
// fillDefaults — so their defaults track a SyncInterval adjusted
// after New (tests and tools do this).
type loopIntervals struct {
	debounce    time.Duration // settle window after the last event
	debounceMax time.Duration // hard bound from the first event
	remotePoll  time.Duration // remote observer stamp-poll period
	fullRescan  time.Duration // safety-net full-scan period
	backoffBase time.Duration
	backoffMax  time.Duration
}

func (c *Client) resolveIntervals(watching bool) loopIntervals {
	iv := loopIntervals{
		debounce:    c.cfg.DebounceWindow,
		debounceMax: c.cfg.DebounceMax,
		remotePoll:  c.cfg.RemotePollInterval,
		fullRescan:  c.cfg.FullRescanInterval,
		backoffBase: c.cfg.BackoffBase,
		backoffMax:  c.cfg.BackoffMax,
	}
	if iv.debounce <= 0 {
		iv.debounce = c.cfg.SyncInterval / 4
		if iv.debounce > 500*time.Millisecond {
			iv.debounce = 500 * time.Millisecond
		}
		if iv.debounce <= 0 {
			iv.debounce = time.Millisecond
		}
	}
	if iv.debounceMax <= 0 {
		iv.debounceMax = 10 * iv.debounce
	}
	if iv.remotePoll <= 0 {
		iv.remotePoll = c.cfg.SyncInterval
	}
	if iv.fullRescan <= 0 {
		if watching {
			iv.fullRescan = 10 * c.cfg.SyncInterval
		} else {
			iv.fullRescan = c.cfg.SyncInterval
		}
	}
	if iv.backoffBase <= 0 {
		iv.backoffBase = c.cfg.SyncInterval
	}
	if iv.backoffMax <= 0 {
		iv.backoffMax = 16 * iv.backoffBase
	}
	return iv
}

// RunLoop drives continuous sync until the context is cancelled.
//
// When the folder supports change notifications (localfs.Watchable)
// and DisableWatch is unset, the loop runs event-driven: watcher
// events accumulate in a debounced dirty set scanned with
// SyncDirty (O(changes)); a remote observer polls the cloud version
// stamps every RemotePollInterval; and a low-frequency full rescan
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
// back the loop off exponentially (jittered, capped at BackoffMax,
// reset on the first success). Config.OnPass, when set, receives the
// report of every successful pass that moved data or metadata.
func (c *Client) RunLoop(ctx context.Context, onError func(error)) {
	clk := c.cfg.Clock

	var watch localfs.Watch
	var events <-chan localfs.WatchEvent
	watching := false
	if !c.cfg.DisableWatch {
		if wf, ok := c.folder.(localfs.Watchable); ok {
			if w, err := wf.Watch(); err == nil {
				watch, events, watching = w, w.Events(), true
				defer func() { _ = watch.Close() }()
			}
		}
	}
	gauge := func() {
		v := 0.0
		if watching {
			v = 1.0
		}
		c.cfg.Obs.Gauge("sync.loop.watching").Set(v)
	}
	gauge()

	// Fold the delta log into the base on the way out, so the next
	// start reads one file.
	defer func() { _ = c.SaveState() }()

	// Jitter is deterministic per device so fleet-scale tests are
	// reproducible; across devices the seeds differ, which is the point
	// of jitter (avoid synchronized retry stampedes).
	h := fnv.New64a()
	_, _ = h.Write([]byte(c.cfg.Device))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	now := clk.Now()
	dirty := make(map[string]struct{})
	var settleAt, holdAt time.Time // zero while the dirty set is empty
	nextRescan := now              // immediate first full pass
	nextRemote := now.Add(c.resolveIntervals(watching).remotePoll)
	failures := 0
	var retryAt time.Time

	fail := func(err error) {
		failures++
		iv := c.resolveIntervals(watching)
		if errors.Is(err, ErrInsufficientCapacity) {
			// Quota exhaustion is not transient: a jittered retry
			// re-fails identically until space returns (the user frees
			// data, or the capacity tracker's probe re-admits a cloud).
			// Wait a full safety-net interval instead of hot-looping
			// through the exponential backoff ladder.
			c.cfg.Obs.Counter("sync.loop.quota_blocked").Inc()
			retryAt = clk.Now().Add(iv.fullRescan)
			if onError != nil {
				onError(err)
			}
			return
		}
		c.cfg.Obs.Counter("sync.loop.backoffs").Inc()
		delay := iv.backoffBase
		for i := 1; i < failures && delay < iv.backoffMax; i++ {
			delay *= 2
		}
		if delay > iv.backoffMax {
			delay = iv.backoffMax
		}
		// Jitter to [0.5, 1.5)×delay.
		delay = delay/2 + time.Duration(rng.Int63n(int64(delay)))
		retryAt = clk.Now().Add(delay)
		if onError != nil {
			onError(err)
		}
	}
	succeed := func(rep SyncReport) {
		failures = 0
		if c.cfg.OnPass != nil && (rep.LocalChanges > 0 || rep.CloudChanges > 0 || len(rep.Conflicts) > 0) {
			c.cfg.OnPass(rep)
		}
	}
	degrade := func() {
		// The watcher died: from here on only scans see changes.
		watching = false
		events = nil // a nil channel blocks forever in select
		gauge()
		nextRescan = clk.Now()
	}

	for {
		if ctx.Err() != nil {
			return
		}
		iv := c.resolveIntervals(watching)
		now = clk.Now()

		// An overflowed watcher lost events; only a full rescan
		// restores the completeness the dirty set promises.
		if watching && watch.Overflowed() {
			c.cfg.Obs.Counter("sync.watch.overflows").Inc()
			nextRescan = now
		}

		dirtyDue := len(dirty) > 0 && (!now.Before(settleAt) || !now.Before(holdAt))
		backedOff := failures > 0 && now.Before(retryAt)

		switch {
		case backedOff:
			// Waiting out the backoff; fall through to the sleep below.
		case !now.Before(nextRescan):
			rep, err := c.SyncOnce(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				fail(err)
				continue
			}
			succeed(rep)
			// The full scan covered every path, dirty or not.
			dirty = make(map[string]struct{})
			settleAt, holdAt = time.Time{}, time.Time{}
			now = clk.Now()
			nextRescan = now.Add(iv.fullRescan)
			nextRemote = now.Add(iv.remotePoll)
			continue
		case dirtyDue:
			paths := make([]string, 0, len(dirty))
			for p := range dirty {
				paths = append(paths, p)
			}
			dirty = make(map[string]struct{})
			settleAt, holdAt = time.Time{}, time.Time{}
			rep, err := c.SyncDirty(ctx, paths)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				// Nothing was lost: re-mark the paths dirty and retry
				// them once the backoff allows.
				for _, p := range paths {
					dirty[p] = struct{}{}
				}
				settleAt, holdAt = clk.Now(), clk.Now()
				fail(err)
				continue
			}
			succeed(rep)
			continue
		case !now.Before(nextRemote):
			rep, err := c.SyncRemote(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				fail(err)
				continue
			}
			succeed(rep)
			nextRemote = clk.Now().Add(iv.remotePoll)
			continue
		}

		// Nothing due: sleep until the earliest deadline or the next
		// watcher event.
		deadline := nextRescan
		if nextRemote.Before(deadline) {
			deadline = nextRemote
		}
		if len(dirty) > 0 {
			due := settleAt
			if holdAt.Before(due) {
				due = holdAt
			}
			if due.Before(deadline) {
				deadline = due
			}
		}
		if backedOff && retryAt.After(deadline) {
			// No pass can run before retryAt anyway.
			deadline = retryAt
		}
		var timer <-chan time.Time
		if d := deadline.Sub(now); d > 0 {
			timer = clk.After(d)
		} else {
			// A deadline is already due (e.g. it became due between the
			// dispatch check and here, or backoff just expired): loop
			// again without sleeping.
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-timer:
		case ev, ok := <-events:
			if !ok {
				degrade()
				continue
			}
			c.cfg.Obs.Counter("sync.watch.events").Inc()
			now = clk.Now()
			if len(dirty) == 0 {
				holdAt = now.Add(iv.debounceMax)
			}
			dirty[ev.Path] = struct{}{}
			settleAt = now.Add(iv.debounce)
			// Drain the burst that is already buffered before sleeping
			// again: one editor save can be dozens of events.
			for {
				select {
				case ev, ok := <-events:
					if !ok {
						degrade()
					} else {
						c.cfg.Obs.Counter("sync.watch.events").Inc()
						dirty[ev.Path] = struct{}{}
					}
					continue
				default:
				}
				break
			}
		}
	}
}
