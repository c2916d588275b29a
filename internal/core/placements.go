package core

import (
	"context"
	"slices"

	"unidrive/internal/meta"
	"unidrive/internal/transfer"
)

// A committing pass names the blocks that have landed when its commit
// is built (uploadSession.stamp, under the lock), and its batch may go
// on uploading the reliability tail after that. The blocks that land
// after the stamp are owed to the metadata: the paper fills the blocks'
// Cloud-ID fields in once reliability is reached (§6.2). The device's
// next lock hold records them, whatever that hold is for — a commit
// pass, the trim, the capacity valve, a scrub repair, SetClouds, or,
// when nothing else is due, a pass that polls (SyncRemote, the loop's
// remote poll): hold.commitHeld adds them to what the hold commits.
// Until then other devices read the record the commit made, which holds
// at least K blocks of every segment, and any K decode.

// owedPlacements are the blocks of committed segments that landed after
// their commit's stamp, by segment, and the upload intents they came
// from. Each intent stays committed in the journal until the hold that
// records its blocks has committed; a crash or an exit before that
// leaves the unrecorded tail to Recover's committed-intent branch,
// which reclaims it. Guarded by Client.writer.
type owedPlacements struct {
	blocks  map[string][]meta.BlockLocation
	intents []string
}

// owe hands what a pass's batch landed after its stamp to the device's
// next lock hold; the pass's hold settles the batch, and hands what it
// owes over from there (hold.handOver).
func (c *Client) owe(intentID string, landed map[string][]meta.BlockLocation) {
	if c.owed.blocks == nil {
		c.owed.blocks = make(map[string][]meta.BlockLocation, len(landed))
	}
	for segID, blocks := range landed {
		c.owed.blocks[segID] = append(c.owed.blocks[segID], blocks...)
	}
	c.owed.intents = append(c.owed.intents, intentID)
	c.cfg.Obs.Gauge("core.placements.pending").Set(float64(len(c.owed.blocks)))
}

// Owed placements count as held for every maintenance decision: a hold
// records them before its build decides anything (commitHeld), and a
// scrub judges the image with them recorded (heldImage). So no repair
// re-places an owed block, and no trim or rebalance misses one.

// rebaseOwed turns the owed blocks into placement records on top of
// head — the committed image a hold builds from — for the cloud set to.
// A segment head holds gets a record of the owed blocks it admits, with
// the thin verdict of head's record plus those. A block is left out
// when the record already places its block ID, on this cloud or another,
// or when sched's Targets rule does not admit its cloud (not in the
// set, or at MaxPerCloud). Nothing head lacks is added back: the owed
// blocks were never named, so no block a later commit removed — a trim,
// a repair — is among them. The blocks left out, and every owed block
// of a segment head no longer holds, are returned for deletion once the
// commit has landed: no metadata will ever name them.
func (c *Client) rebaseOwed(head *meta.Image, to *stack) (places []*meta.Change, dropped []transfer.BlockRef) {
	for segID, blocks := range c.owed.blocks {
		var rec *meta.Segment
		if seg, alive := head.Segment(segID); alive {
			rec = seg.Clone()
		}
		place := &meta.Change{Type: meta.ChangePlace, Path: segID}
		for _, b := range blocks {
			switch {
			case rec != nil && rec.HasBlock(b.BlockID, b.CloudID):
				// Named already: the same file, recorded by a retried hold
				// or written by another pass.
			case rec != nil && slices.Contains(to.params.Targets(rec.Blocks, to.names), b.CloudID) &&
				!slices.ContainsFunc(rec.Blocks, func(x meta.BlockLocation) bool { return x.BlockID == b.BlockID }):
				rec.AddBlockSum(b.BlockID, b.CloudID, b.Checksum)
				place.Place = append(place.Place, b)
			default:
				dropped = append(dropped, transfer.BlockRef{SegID: segID, BlockID: b.BlockID, Cloud: b.CloudID})
			}
		}
		if len(place.Place) > 0 {
			place.Thin = len(rec.Blocks) < to.normalTarget(rec)
			places = append(places, place)
		}
	}
	return places, dropped
}

// outlived drops from places the records of segments post — the image
// the hold's commit leaves — no longer holds: this very commit drops
// them, and their owed blocks join dropped. No block post names stays
// in dropped: a scrub's repair record may name an owed block the rebase
// left out.
func (c *Client) outlived(post *meta.Image, places []*meta.Change, dropped []transfer.BlockRef) ([]*meta.Change, []transfer.BlockRef) {
	places = slices.DeleteFunc(places, func(ch *meta.Change) bool {
		if _, alive := post.Segment(ch.Path); alive {
			return false
		}
		for _, b := range c.owed.blocks[ch.Path] {
			if ref := (transfer.BlockRef{SegID: ch.Path, BlockID: b.BlockID, Cloud: b.CloudID}); !slices.Contains(dropped, ref) {
				dropped = append(dropped, ref)
			}
		}
		return true
	})
	dropped = slices.DeleteFunc(dropped, func(b transfer.BlockRef) bool {
		seg, alive := post.Segment(b.SegID)
		return alive && seg.HasBlock(b.BlockID, b.Cloud)
	})
	return places, dropped
}

// heldImage is the committed head as a maintenance decision taken
// outside a hold sees it: with the owed placements recorded.
func (c *Client) heldImage(ctx context.Context) (*meta.Image, error) {
	c.writer.Lock()
	defer c.writer.Unlock()
	head, err := c.store.Refresh(ctx)
	if err != nil || len(c.owed.intents) == 0 {
		return head, err
	}
	places, _ := c.rebaseOwed(head, &c.stack)
	return head.ApplyCOW(places, c.cfg.Device)
}
