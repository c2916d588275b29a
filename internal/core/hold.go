package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"unidrive/internal/deltasync"
	"unidrive/internal/meta"
	"unidrive/internal/qlock"
	"unidrive/internal/transfer"
	"unidrive/internal/vclock"
)

// hold is the paper's writer doing one update: take the quorum lock,
// commit, release (§4.1, §5.2). It lives from its Acquire to its
// release's last delete, and owns everything in between:
//
//   - the acquisition and the refresh to the head the commit builds on,
//     on a goroutine of their own from startHold;
//   - the commit (commit, commitHeld), with the placements owed to it;
//   - the metadata writes the commit's quorum did not need
//     (deltasync.Store.JoinWrites), then the lock release;
//   - beside them, from the instant the pass would have sent them, the
//     deletes of the blocks the commit released and of the owed blocks
//     no metadata names, then the clear of the intents they belong to;
//   - for a commit pass, beside those deletes, the reliability second of
//     its upload (upload): the batch runs on to every fair share and is
//     settled — the blocks it landed after the commit's stamp are owed
//     to the next hold — and the pass's intent is cleared once the
//     deletes have ended, or kept while blocks are owed.
//
// A commit is visible to every device once its version stamp is on a
// quorum of clouds (deltasync.Store.Commit), and the pass that committed
// returns there: the rest of the hold, its tail (core.tail.*,
// CrashInTail), runs on beside the device's next operation. The Client
// keeps its last hold, and that operation waits for it (Wait) only
// where it must:
//
//   - the next hold before its own commit, so no metadata write of a
//     hold outlives the next hold's commit, and the next hold finds the
//     last one's intents cleared or left to Recover, and its owed
//     placements handed over;
//   - a commit pass before its upload when the last batch is still
//     running (startUpload, core.tail.upload_joins): a tenant has one
//     open batch at the FairScheduler; and before uploading a segment
//     the last hold is deleting (commitLocal, core.tail.reupload_joins):
//     the blocks' names are the segment's, and a delete that landed
//     after the upload would take the new copy;
//   - Recover, SaveState, SetClouds, Scrub and the maintenance commits
//     before they start, and a maintenance commit on its own hold before
//     it returns (released); JoinTail for a caller outside the package.
//
// A polling pass does not wait: it takes the owed placements of a batch
// that has been settled (handOver), and leaves a running one alone.
//
// The next hold's Acquire and refresh run beside the last hold's
// release, and before it: qlock tags each flag with its round's
// generation, and a release, a withdraw or a shed deletes only its own
// round's, so the hold keeps its quorum until its release, after its
// commit's metadata writes; the next hold's refresh joins those writes
// itself. Only the next commit waits. A crash after the commit, or a
// cancelled pass context, leaves the pass's intent committed, with the
// segments the commit released journaled (journal.Intent.Released):
// Recover deletes their blocks and every block of the batch no metadata
// names.
type hold struct {
	c      *Client
	ctx    context.Context
	cancel context.CancelFunc
	// locked is closed once the acquisition and refresh, started at
	// startedAt, have ended, at lockedAt. lock is the won lock until the
	// release is sent; head and err are their outcome.
	locked              chan struct{}
	startedAt, lockedAt time.Time
	lock                *qlock.Lock
	head                *meta.Image
	err                 error
	// recorded is the number of owed segment placements the commit
	// recorded.
	recorded int

	// wg counts what runs on after the commit: the release, the deletes
	// and the batch.
	wg sync.WaitGroup
	// deleting holds the segments whose blocks the hold deletes, until
	// Wait. batch is a commit pass's upload running on in the hold, until
	// its owed placements are handed over. Both are the writer's.
	deleting map[string]bool
	batch    *heldBatch
}

// heldBatch is a commit pass's upload batch running on in its hold.
type heldBatch struct {
	done    <-chan struct{} // the batch's: closed once it has ended
	settled chan struct{}   // closed once landed is final
	intent  string
	// landed is what the batch landed after the commit's stamp, by
	// segment; the hold writes it before settled closes, the writer reads
	// it after.
	landed map[string][]meta.BlockLocation
}

// releaseTimeout bounds a hold's lock release and its block deletes,
// each from the instant it starts: a stalled cloud must not hang
// shutdown, so they are abandoned after this long (the flag files
// expire on their own after LockExpiry).
const releaseTimeout = 10 * time.Second

// startHold starts a hold's acquisition and refresh.
func (c *Client) startHold(ctx context.Context) *hold {
	ctx, cancel := context.WithCancel(ctx)
	h := &hold{c: c, ctx: ctx, cancel: cancel, locked: make(chan struct{}), startedAt: c.cfg.Clock.Now()}
	go func() {
		defer close(h.locked)
		defer func() { h.lockedAt = c.cfg.Clock.Now() }()
		if h.lock, h.err = c.locks.Acquire(ctx); h.err != nil {
			return
		}
		if c.crashNow(CrashPreCommit) {
			h.err = ErrCrashInjected
			return
		}
		// Refresh polls the cheap version stamps and catches up
		// (delta-only when possible) only if a newer commit is pending.
		h.head, h.err = c.store.Refresh(ctx)
	}()
	return h
}

// lockedCommit is the one locked commit: a hold's acquisition and
// commit back to back. to is the client's own stack for every caller
// but SetClouds, whose commit lands on the new cloud set. build runs
// under the lock and must not touch the folder. It returns how many
// owed segment placements the hold recorded. Callers hold
// Client.writer: the lock manager does not exclude this device's own
// concurrent acquisitions (qlock.Manager). commitLocal runs the same two
// with its upload between them.
func (c *Client) lockedCommit(ctx context.Context, to stack, build func(head *meta.Image) ([]*meta.Change, error)) (int, error) {
	h := c.startHold(ctx)
	defer h.close()
	_, err := h.commit(to, build)
	return h.recorded, err
}

// commit waits for the acquisition and refresh, waits for the device's
// last hold, becomes the device's last hold and commits (commitHeld),
// through to's store. It returns the instant the commit completed (or
// found nothing to commit), with the release sent. A hold whose commit
// failed returns once its release has ended; one that recorded the owed
// placements deletes the owed blocks no metadata names, and only then
// clears their intents, so a crash in between leaves them to Recover.
func (h *hold) commit(to stack, build func(head *meta.Image) ([]*meta.Change, error)) (time.Time, error) {
	<-h.locked
	if h.err != nil {
		return time.Time{}, h.err
	}
	c := h.c
	c.last.Wait()
	c.last = h
	intents := c.owed.intents
	dropped, err := h.commitHeld(to, build)
	committedAt := c.cfg.Clock.Now()
	h.release(to.store)
	if err != nil {
		h.Wait()
		return time.Time{}, err
	}
	if len(intents) > 0 {
		c.owed = owedPlacements{}
		c.cfg.Obs.Gauge("core.placements.pending").Set(0)
		if len(dropped) > 0 {
			c.cfg.Obs.Counter("core.placements.dropped").Add(int64(len(dropped)))
		}
		runDeletes := h.delete(dropped)
		h.run(func() {
			if !c.crashNow(CrashInTail) && runDeletes() {
				for _, id := range intents {
					_ = c.journal.Clear(id)
				}
			}
		})
	}
	return committedAt, nil
}

// commitHeld is what a hold does under the lock: record the owed
// placements on the head, build the changes on top of that, check the
// lock and commit. It returns the owed blocks the commit does not name.
func (h *hold) commitHeld(to stack, build func(head *meta.Image) ([]*meta.Change, error)) ([]transfer.BlockRef, error) {
	base, owed, dropped := h.head, []*meta.Change(nil), []transfer.BlockRef(nil)
	if len(h.c.owed.intents) > 0 {
		owed, dropped = h.c.rebaseOwed(h.head, &to)
		var err error
		if base, err = h.head.ApplyCOW(owed, h.c.cfg.Device); err != nil {
			return nil, err
		}
	}
	changes, err := build(base)
	if err != nil {
		return nil, err
	}
	if len(h.c.owed.intents) > 0 {
		post, err := base.ApplyCOW(changes, h.c.cfg.Device)
		if err != nil {
			return nil, err
		}
		owed, dropped = h.c.outlived(post, owed, dropped)
		h.recorded = len(owed)
		changes = append(owed, changes...)
	}
	if len(changes) == 0 {
		return dropped, nil
	}
	if !h.lock.Valid() {
		return nil, fmt.Errorf("core: quorum lock lost before commit")
	}
	if _, err := to.store.Commit(h.ctx, changes); err != nil {
		return nil, err
	}
	if h.c.crashNow(CrashPostCommit) {
		// The commit landed but the journal has not heard: the pass's own
		// intent still says "uploading", an owed one is still there.
		// Recovery must tell from the image itself.
		return nil, ErrCrashInjected
	}
	return dropped, nil
}

// close ends a hold on every path out of its pass: an acquisition still
// running is of no use any more, and a lock won but never committed
// under is released, and waited for: no lock request of a hold that did
// not commit outlives its pass.
func (h *hold) close() {
	h.cancel()
	<-h.locked
	if h.lock != nil {
		h.release(h.c.store)
		h.Wait()
	}
}

// release sends the lock's release in the hold once no metadata write
// of the hold's commit through store is in flight
// (deltasync.Store.JoinWrites): one landing after the release could
// hide the next holder's commit from a read quorum. It is detached from
// the pass's cancellation (a cancelled sync must still try to unlock),
// and abandoned releaseTimeout after it started, counted under
// qlock.release_timeouts: the flag files expire after LockExpiry and
// every other device breaks them.
func (h *hold) release(store *deltasync.Store) {
	lock := h.lock
	h.lock = nil
	h.run(func() {
		rctx, cancel := vclock.WithTimeout(h.c.cfg.Clock, context.WithoutCancel(h.ctx), releaseTimeout)
		defer cancel()
		done := make(chan struct{})
		go func() {
			defer close(done)
			store.JoinWrites()
			_ = lock.Release(rctx)
		}()
		select {
		case <-done:
		case <-rctx.Done():
			h.c.cfg.Obs.Counter("qlock.release_timeouts").Inc()
		}
	})
}

// upload hands a committed pass's batch to its hold, the paper's
// reliability second. There the batch runs on to every fair share and is
// settled: the blocks it landed after the commit's stamp are owed to the
// device's next hold, which takes them (handOver). Beside the batch, from
// the commit on, the blocks the commit released are deleted: none of
// them is the batch's, whose segments the commit names. The intent is
// cleared once both have ended if nothing is owed; otherwise it stays
// committed until the hold that records the owed blocks. The coding
// buffers go back to the pool once the batch has been settled.
//
// The batch keeps the pass's context: a shutdown stops it. A cancelled
// batch, or a crash in the hold (CrashInTail: the batch is cancelled and
// nothing deleted), leaves the intent committed with nothing owed, so a
// crash anywhere after the commit leaves the same record: Recover
// deletes the released blocks and the batch's blocks no metadata names.
// This pass's hold is the released blocks' only deleter: a device that
// applies the commit deletes nothing.
func (h *hold) upload(session *uploadSession, intentID string, released []transfer.BlockRef) {
	c := h.c
	b := &heldBatch{done: session.done, settled: make(chan struct{}), intent: intentID}
	h.batch = b
	runDeletes := h.delete(released)
	returned := c.cfg.Clock.Now()
	h.run(func() {
		if c.crashNow(CrashInTail) {
			session.close()
			close(b.settled)
			return
		}
		deleted := make(chan bool, 1)
		go func() { deleted <- runDeletes() }()
		err := session.join()
		if err == nil {
			if session.endAt.After(returned) {
				c.cfg.Obs.Histogram("core.commit.tail_ms").Observe(float64(session.endAt.Sub(returned)) / float64(time.Millisecond))
			}
			b.landed = session.settle()
		}
		session.close()
		close(b.settled)
		if <-deleted && err == nil && len(b.landed) == 0 {
			_ = c.journal.Clear(intentID)
		}
	})
}

// delete marks the blocks' segments as the hold's to delete and returns
// the deletes, for the hold to run: on a context detached from the pass
// and bounded by releaseTimeout from the instant they start, through the
// engine of the cloud set the blocks were sent to (SetClouds replaces
// the Client's after its commit). They report whether every delete was
// tried within that bound. Deletes the bound cut short
// (core.tail.deletes_cut) leave the intents committed, as a crash would:
// the next start's Recover deletes the blocks.
func (h *hold) delete(blocks []transfer.BlockRef) func() bool {
	for _, b := range blocks {
		if h.deleting == nil {
			h.deleting = make(map[string]bool)
		}
		h.deleting[b.SegID] = true
	}
	c, engine := h.c, h.c.engine
	return func() bool {
		dctx, cancel := vclock.WithTimeout(c.cfg.Clock, context.WithoutCancel(h.ctx), releaseTimeout)
		defer cancel()
		engine.DeleteBlocks(dctx, blocks)
		if dctx.Err() != nil {
			c.cfg.Obs.Counter("core.tail.deletes_cut").Inc()
			return false
		}
		return true
	}
}

// run adds f to what the hold runs on.
func (h *hold) run(f func()) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		f()
	}()
}

// Wait waits for the hold to end — its release, its deletes and the
// intent clears after them, a commit pass's batch — and hands over the
// placements the batch owes. A nil hold has ended. Callers hold
// Client.writer.
func (h *hold) Wait() {
	if h == nil {
		return
	}
	h.wg.Wait()
	h.deleting = nil
	h.handOver()
}

// JoinTail waits for the device's last lock hold to end (hold.Wait): its
// lock release, a commit pass's upload to reliability, and the deletes
// of the blocks its commit released. A pass returns without waiting for
// it; the blocks the upload landed after the commit are recorded by the
// device's next lock hold, such as the next SyncRemote.
func (c *Client) JoinTail() {
	c.writer.Lock()
	defer c.writer.Unlock()
	c.last.Wait()
}

// handOver moves the placements the hold's batch owes into Client.owed,
// for the device's next hold, once the batch has been settled; it does
// not wait for that. Callers hold Client.writer.
func (h *hold) handOver() {
	if h == nil || h.batch == nil {
		return
	}
	select {
	case <-h.batch.settled:
	default:
		return
	}
	b := h.batch
	h.batch = nil
	if len(b.landed) > 0 {
		h.c.owe(b.intent, b.landed)
	}
}

// uploading reports whether the hold's batch is still uploading.
func (h *hold) uploading() bool {
	if h == nil || h.batch == nil {
		return false
	}
	select {
	case <-h.batch.done:
		return false
	default:
		return true
	}
}

// deletes reports whether the hold deletes the blocks of a segment one
// of the changes names.
func (h *hold) deletes(changes []*meta.Change) bool {
	if h == nil {
		return false
	}
	for _, ch := range changes {
		for _, seg := range ch.Segments {
			if h.deleting[seg.ID] {
				return true
			}
		}
	}
	return false
}
