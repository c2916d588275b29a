package core

import (
	"context"
	"slices"

	"unidrive/internal/meta"
	"unidrive/internal/transfer"
)

// Every maintenance operation is the same five steps: read the
// committed image through the store's delta cursor (five stamp GETs
// when nothing is pending), survey what the clouds actually hold where
// the policy needs it (one List per cloud, concurrently), let a pure
// policy over (image, survey) decide, commit its placement records through
// lockedCommit, and only then delete the blocks the commit released
// (released). The policies are the short functions below and in
// scrub.go, rebalance.go and recover.go; each holds Client.writer and
// waits for the last hold first (hold.go).

// released ends a maintenance commit: the blocks it released are
// deleted — after the commit, so metadata never names a block that is
// already gone — beside the rest of the hold, which it then waits for:
// a maintenance operation returns with its hold ended. The view
// advances as far as the span changes no file. A file change of another
// device's that the lock's refresh pulled in is left unapplied and v_o
// behind it: maintenance never writes the folder, and the next pass,
// which observes the folder first, applies the change or turns a
// concurrent local edit into a conflict copy. It returns the number of
// blocks deleted.
func (c *Client) released(ctx context.Context, doomed []transfer.BlockRef) int {
	deleted := c.engine.DeleteBlocks(ctx, doomed)
	c.last.Wait()
	c.advance(c.lastImage())
	return deleted
}

// TrimOverProvisioned reclaims over-provisioned parity blocks,
// trimming every segment back to each cloud's fair share but never
// below its normal placement, and leaving thin segments alone (paper §6.2:
// "over-provisioned parity blocks will be cleaned to reclaim storage
// space when the corresponding file is sync'ed to all devices").
//
// The trim runs under the quorum lock and commits the reduced
// placements, so other devices stop advertising the reclaimed blocks.
// Deciding WHEN all devices have synced is the caller's policy (the
// clouds cannot tell UniDrive how many devices exist); a typical
// daemon trims during idle periods.
//
// It returns the number of blocks deleted.
func (c *Client) TrimOverProvisioned(ctx context.Context) (int, error) {
	return c.trimSurplus(ctx, func(string) bool { return true })
}

// RelieveCapacityPressure is the capacity pressure valve: when the
// capacity tracker reports clouds Full, it deletes over-provisioned
// EXTRA parity blocks — each full cloud's surplus above its fair
// share — from the full clouds only, committing the reduced
// placements first. Fair-share blocks and every block on a cloud with
// space are untouched, so no segment loses redundancy it is entitled
// to; the capacity tracker observes the deletes and reopens the cloud
// for a probe. It returns the number of blocks deleted, 0 without work
// (no tracker, nothing Full, nothing over-provisioned).
func (c *Client) RelieveCapacityPressure(ctx context.Context) (int, error) {
	// Read before the lock is taken: a flag file landing on a full
	// cloud is itself a recovery signal to the tracker.
	full := make(map[string]bool)
	for _, st := range c.cfg.Capacity.Snapshot() {
		if st.State == "full" {
			full[st.Cloud] = true
		}
	}
	if len(full) == 0 {
		return 0, nil
	}
	deleted, err := c.trimSurplus(ctx, func(name string) bool { return full[name] })
	c.cfg.Obs.Counter("core.capacity.pressure_deleted").Add(int64(deleted))
	return deleted, err
}

// trimSurplus deletes, on every cloud onCloud accepts, each segment's
// surplus (sched's Surplus rule: the blocks above the cloud's fair
// share, highest IDs first), committing the reduced placements first.
// It never takes so many that fewer than the normal placement remain: a
// cloud holding extras does not make up for one short of its share. A
// thin segment is short of its normal placement and has no surplus to
// give, whatever one cloud holds. It returns the number of blocks
// deleted.
func (c *Client) trimSurplus(ctx context.Context, onCloud func(cloudName string) bool) (int, error) {
	c.writer.Lock()
	defer c.writer.Unlock()
	c.last.Wait()
	var doomed []transfer.BlockRef
	_, err := c.lockedCommit(ctx, c.stack, func(img *meta.Image) (changes []*meta.Change, err error) {
		for _, segID := range img.SegmentIDs() {
			seg, _ := img.Segment(segID)
			if seg.Thin {
				continue
			}
			surplus := slices.DeleteFunc(c.params.Surplus(seg.Blocks), func(b meta.BlockLocation) bool {
				return !onCloud(b.CloudID)
			})
			surplus = surplus[:min(len(surplus), max(0, len(seg.Blocks)-c.normalTarget(seg)))]
			if len(surplus) == 0 {
				continue
			}
			updated := seg.Clone()
			updated.Blocks = slices.DeleteFunc(updated.Blocks, func(b meta.BlockLocation) bool { return slices.Contains(surplus, b) })
			changes = append(changes, meta.PlaceChange(seg, updated))
			for _, b := range surplus {
				doomed = append(doomed, transfer.BlockRef{SegID: segID, BlockID: b.BlockID, Cloud: b.CloudID})
			}
		}
		return changes, nil
	})
	if err != nil {
		return 0, err
	}
	return c.released(ctx, doomed), nil
}
