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
//     no metadata names, then the clear of the intents they belong to.
//
// The tail belongs to the Client, not to the pass: at most one is
// outstanding, and the device's next operation joins it only where it
// must (joinTail):
//
//   - a hold joins it before its own commit (lockRound.commit), so no
//     metadata write of a hold outlives the next hold's commit, and the
//     next hold finds the last one's intents cleared or left to Recover;
//   - a commit pass joins it before uploading a segment it is deleting
//     (commitLocal): the blocks' names are the segment's, and a delete
//     that landed after the upload would take the new copy;
//   - Recover, SaveState, SetClouds, Scrub and the maintenance commits
//     join it first, and a maintenance commit joins its own before it
//     returns.
//
// The next hold's Acquire may run beside the release, and before it:
// qlock tags each flag with its round's generation, and a release, a
// withdraw or a shed deletes only its own round's, so the hold keeps its
// quorum until its release, after its commit's metadata writes. A crash in the tail leaves the pass's intent committed, with
// the segments the commit released journaled (journal.Intent.Released),
// and Recover deletes their blocks.
type holdTail struct {
	wg sync.WaitGroup
	// deleting holds the segments whose blocks the tail deletes; written
	// by the pass that started the tail, before it returns.
	deleting map[string]bool
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

// joinTail waits for the last hold's tail, if one is outstanding.
// Callers hold Client.writer.
func (c *Client) joinTail() {
	if c.tail == nil {
		return
	}
	c.tail.wg.Wait()
	c.tail = nil
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

// deleteInTail deletes blocks as part of the current tail, on a
// context detached from the pass and bounded like the release, and
// then runs then — clearing the intents the blocks belong to — if
// every delete was tried before that bound. Deletes the bound cut short
// (core.tail.deletes_cut) leave the intents committed, as a crash would:
// the next start's Recover deletes the blocks. An injected CrashInTail
// stops it before the deletes.
func (c *Client) deleteInTail(ctx context.Context, blocks []transfer.BlockRef, then func()) {
	t, engine := c.tail, c.engine
	for _, b := range blocks {
		if t.deleting == nil {
			t.deleting = make(map[string]bool)
		}
		t.deleting[b.SegID] = true
	}
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.cfg.ReleaseTimeout)
	t.run(func() {
		defer cancel()
		if c.crashNow(CrashInTail) {
			return
		}
		engine.DeleteBlocks(dctx, blocks)
		if dctx.Err() != nil {
			c.cfg.Obs.Counter("core.tail.deletes_cut").Inc()
			return
		}
		then()
	})
}
