package core

import (
	"context"
	"sync"

	"unidrive/internal/meta"
	"unidrive/internal/transfer"
)

// A commit is visible to every device once its version stamp is on a
// quorum of clouds (deltasync.Store.Commit). What its lock hold does
// after that is the hold's tail, and the pass that committed returns
// without waiting for it:
//
//   - the metadata writes the commit's quorum did not need
//     (deltasync.Store.JoinWrites), then the lock release;
//   - beside them, from the instant the pass would have sent them, the
//     deletes of the blocks the commit released and of the owed blocks
//     no metadata names, then the clear of the intents they belong to;
//   - for a commit pass, beside those deletes, the reliability second of
//     its upload (finishUpload): the batch runs on to every fair share
//     and is settled — the blocks it landed after the commit's stamp are
//     owed to the next lock hold — and the pass's intent is cleared once
//     the deletes have ended, or kept while blocks are owed.
//
// The tail belongs to the Client, not to the pass: at most one is
// outstanding, and the device's next operation joins it only where it
// must (joinTail):
//
//   - a hold joins it before its own commit (lockRound.commit), so no
//     metadata write of a hold outlives the next hold's commit, and the
//     next hold finds the last one's intents cleared or left to Recover,
//     and its owed placements handed over;
//   - a commit pass joins it before its upload when its batch is still
//     running (startUpload, core.tail.upload_joins): a tenant has one
//     open batch at the FairScheduler; and before uploading a segment
//     it is deleting (commitLocal): the blocks' names are the segment's,
//     and a delete that landed after the upload would take the new copy;
//   - Recover, SaveState, SetClouds, Scrub and the maintenance commits
//     join it first, and a maintenance commit joins its own before it
//     returns.
//
// A polling pass does not join it: it takes the owed placements of a
// batch that has ended (takeOwed), and leaves a running one alone.
//
// The next hold's Acquire may run beside the release, and before it:
// qlock tags each flag with its round's generation, and a release, a
// withdraw or a shed deletes only its own round's, so the hold keeps its
// quorum until its release, after its commit's metadata writes. A crash
// in the tail, or a cancelled pass context, leaves the pass's intent
// committed, with the segments the commit released journaled
// (journal.Intent.Released): Recover deletes their blocks and every
// block of the batch no metadata names.
type holdTail struct {
	wg sync.WaitGroup
	// deleting holds the segments whose blocks the tail deletes; written
	// by the pass that started the tail, before it returns.
	deleting map[string]bool
	// upload is the commit pass's batch running on in the tail; nil for
	// any other hold, and once its owed placements are taken.
	upload *tailUpload
}

// tailUpload is a commit pass's batch in its hold's tail.
type tailUpload struct {
	done    <-chan struct{} // the batch's: closed once it has ended
	settled chan struct{}   // closed once landed is final
	intent  string
	// landed is what the batch landed after the commit's stamp, by
	// segment; the tail writes it before settled closes, the writer
	// reads it after.
	landed map[string][]meta.BlockLocation
}

// running reports whether the batch is still uploading.
func (u *tailUpload) running() bool {
	select {
	case <-u.done:
		return false
	default:
		return true
	}
}

// startTail joins the last hold's tail and starts the next one's.
// Callers hold Client.writer.
func (c *Client) startTail() *holdTail {
	c.joinTail()
	c.tail = &holdTail{}
	return c.tail
}

// run adds f to the tail.
func (t *holdTail) run(f func()) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		f()
	}()
}

// JoinTail waits for the device's last lock hold's tail (tail.go) to
// end: its lock release, a commit pass's upload to reliability, and the
// deletes of the blocks its commit released. A pass returns without
// waiting for it; the blocks the upload landed after the commit are
// recorded by the device's next lock hold, such as the next SyncRemote.
func (c *Client) JoinTail() {
	c.writer.Lock()
	defer c.writer.Unlock()
	c.joinTail()
}

// joinTail waits for the last hold's tail, if one is outstanding, and
// takes the placements its batch owes. Callers hold Client.writer.
func (c *Client) joinTail() {
	if c.tail == nil {
		return
	}
	c.tail.wg.Wait()
	c.takeOwed()
	c.tail = nil
}

// takeOwed moves the placements the tail's batch owes into Client.owed,
// for the device's next lock hold, once the batch has been settled; it
// does not wait for that. Callers hold Client.writer.
func (c *Client) takeOwed() {
	if c.tail == nil || c.tail.upload == nil {
		return
	}
	u := c.tail.upload
	select {
	case <-u.settled:
	default:
		return
	}
	c.tail.upload = nil
	if len(u.landed) > 0 {
		c.owe(u.intent, u.landed)
	}
}

// joinTailFor joins the tail when one of the changes names a segment
// whose blocks it is deleting, before the pass uploads the segment
// again.
func (c *Client) joinTailFor(changes []*meta.Change) {
	if c.tail == nil {
		return
	}
	for _, ch := range changes {
		for _, seg := range ch.Segments {
			if c.tail.deleting[seg.ID] {
				c.cfg.Obs.Counter("core.tail.reupload_joins").Inc()
				c.joinTail()
				return
			}
		}
	}
}

// deleteInTail deletes blocks as part of the current tail, starting now
// (tailDeletes), and then runs then — clearing the intents the blocks
// belong to — if every delete was tried within the bound. An injected
// CrashInTail stops it before the deletes.
func (c *Client) deleteInTail(ctx context.Context, blocks []transfer.BlockRef, then func()) {
	deletes := c.tailDeletes(ctx, blocks)
	c.tail.run(func() {
		if !c.crashNow(CrashInTail) && deletes() {
			then()
		}
	})
}

// tailDeletes marks the blocks' segments as the current tail's to
// delete and returns the deletes, for the tail to run: on a context
// detached from the pass and bounded like the release from the instant
// they start. They report whether every delete was tried within that
// bound. Deletes the bound cut short (core.tail.deletes_cut) leave the
// intents committed, as a crash would: the next start's Recover deletes
// the blocks.
func (c *Client) tailDeletes(ctx context.Context, blocks []transfer.BlockRef) func() bool {
	t, engine, bound := c.tail, c.engine, c.cfg.ReleaseTimeout
	for _, b := range blocks {
		if t.deleting == nil {
			t.deleting = make(map[string]bool)
		}
		t.deleting[b.SegID] = true
	}
	return func() bool {
		dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), bound)
		defer cancel()
		engine.DeleteBlocks(dctx, blocks)
		if dctx.Err() != nil {
			c.cfg.Obs.Counter("core.tail.deletes_cut").Inc()
			return false
		}
		return true
	}
}
