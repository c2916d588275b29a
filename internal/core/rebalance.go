package core

import (
	"context"
	"fmt"
	"slices"

	"unidrive/internal/cloud"
	"unidrive/internal/erasure"
	"unidrive/internal/journal"
	"unidrive/internal/meta"
	"unidrive/internal/metacrypt"
	"unidrive/internal/sched"
	"unidrive/internal/transfer"
)

// SetClouds changes the client's cloud set (paper §6.2, "Adding or
// Removing CCSs") and rebalances every segment's block placement to
// the new configuration: removed clouds' fair shares are regenerated
// onto the remaining clouds (the client re-encodes blocks locally —
// it can reconstruct every segment), new clouds receive their fair
// share, and surplus blocks are reclaimed.
//
// The operation runs under the quorum lock of the OLD cloud set (so
// it serializes with ongoing commits), then commits the updated
// placements to the NEW set, which is the client's own from then on.
// Its uploads keep blocks before metadata the way a scrub repair does:
// a repair intent names each block before it leaves the device, and a
// SetClouds that fails deletes what it uploaded.
func (c *Client) SetClouds(ctx context.Context, newClouds []cloud.Interface) error {
	c.writer.Lock()
	defer c.writer.Unlock()
	c.last.Wait()
	if len(newClouds) == 0 {
		return fmt.Errorf("core: cannot rebalance to zero clouds")
	}
	derived := c.cfg
	derived.Kr, derived.Ks = 0, 0 // re-derive for the new N
	derived.fillDefaults(len(newClouds))
	newParams := sched.Params{N: len(newClouds), K: derived.K, Kr: derived.Kr, Ks: derived.Ks}
	if err := newParams.Validate(); err != nil {
		return err
	}
	cipher, err := metacrypt.New(c.cfg.CipherAlg, c.cfg.Passphrase)
	if err != nil {
		return err
	}
	// The new set is wired exactly like New wires a fresh client, on
	// the same prober: every request below — the rebalance's own block
	// moves included — goes through the cloud call chain.
	next := newStack(c.cfg, newParams, newClouds, c.engine.Prober(), cipher)
	rb := &rebalance{c: c, to: &next, intentID: "rebalance:" + c.cfg.Device}
	if err := c.journal.Begin(&journal.Intent{
		ID: rb.intentID, Kind: journal.KindRepair, Device: c.cfg.Device, CreatedAt: c.cfg.Clock.Now(),
	}); err != nil {
		return err
	}

	_, err = c.lockedCommit(ctx, next, func(img *meta.Image) (places []*meta.Change, err error) {
		for _, segID := range img.SegmentIDs() {
			seg, _ := img.Segment(segID)
			place, err := rb.segment(ctx, seg)
			if err != nil {
				return nil, fmt.Errorf("core: rebalancing segment %s: %w", segID, err)
			}
			if place != nil {
				places = append(places, place)
			}
		}
		// The commit goes through the store over the NEW cloud set; its
		// refresh adopts the latest state from the overlapping clouds,
		// and its commit fully repairs brand-new ones.
		_, err = next.store.Refresh(ctx)
		return places, err
	})
	if err != nil {
		// No committed metadata names what this call uploaded. An intent
		// whose blocks could not all be deleted stays for Recover.
		if next.engine.DeleteBlocks(context.WithoutCancel(ctx), rb.uploaded) == len(rb.uploaded) {
			_ = c.journal.Clear(rb.intentID)
		}
		return err
	}
	// The new set holds the head now; the writer keeps every other
	// operation off the stack while it changes.
	c.stack = next
	c.released(ctx, rb.doomed)
	return c.journal.Clear(rb.intentID)
}

// rebalance is one SetClouds' block moves: the new set, the repair
// intent its uploads are journaled under, the blocks uploaded so far
// and the blocks the commit reclaims.
type rebalance struct {
	c        *Client
	to       *stack
	intentID string
	uploaded []transfer.BlockRef
	doomed   []transfer.BlockRef
}

// segment moves one segment's blocks as sched's rebalance plan says and
// returns its placement record, nil when the placement stands. Blocks the plan
// wants uploaded are re-encoded from the segment's content, fetched
// from wherever enough blocks remain in the OLD set; the blocks it
// reclaims on clouds that stay are deleted after the commit.
func (rb *rebalance) segment(ctx context.Context, seg *meta.Segment) (*meta.Change, error) {
	placement := make(map[int]string, len(seg.Blocks))
	for _, b := range seg.Blocks {
		placement[b.BlockID] = b.CloudID
	}
	plan, err := sched.PlanRebalance(placement, rb.to.names, seg.N, rb.to.params)
	if err != nil {
		return nil, err
	}
	// An empty plan still needs a metadata rewrite when the placement
	// references a removed cloud: the surviving clouds already hold
	// their fair shares (nothing to move), but the dead cloud's block
	// references must not outlive it.
	stale := slices.ContainsFunc(seg.Blocks, func(b meta.BlockLocation) bool {
		return !slices.Contains(rb.to.names, b.CloudID)
	})
	if plan.Empty() && !stale {
		return nil, nil
	}
	sums, err := rb.upload(ctx, seg, plan.Upload)
	if err != nil {
		return nil, err
	}
	for cloudName, blockIDs := range plan.Delete {
		for _, blockID := range blockIDs {
			rb.doomed = append(rb.doomed, transfer.BlockRef{SegID: seg.ID, BlockID: blockID, Cloud: cloudName})
		}
	}
	updated := seg.Clone()
	updated.Blocks = nil
	for blockID, cloudName := range sched.ApplyRebalance(placement, rb.to.names, plan) {
		// Block content is determined by (segment, blockID), so a
		// surviving block keeps its recorded checksum; re-encoded
		// blocks get the sum computed at upload.
		sum, fresh := sums[blockID]
		if !fresh {
			sum = seg.BlockSum(blockID)
		}
		updated.AddBlockSum(blockID, cloudName, sum)
	}
	return meta.PlaceChange(seg, updated), nil
}

// upload puts the wanted blocks of one segment on their clouds of the
// new set, each journaled before it leaves the device, and returns
// their checksums.
func (rb *rebalance) upload(ctx context.Context, seg *meta.Segment, wanted map[string][]int) (map[int]uint32, error) {
	sums := make(map[int]uint32)
	if len(wanted) == 0 {
		return sums, nil
	}
	data, err := rb.c.fetchSegment(ctx, seg)
	if err != nil {
		return nil, fmt.Errorf("cannot reconstruct the segment: %w", err)
	}
	coder, err := erasure.CoderFor(seg.K, seg.N)
	if err != nil {
		return nil, err
	}
	src := erasure.NewSource(coder, data, 0)
	defer src.Release()
	for cloudName, blockIDs := range wanted {
		for _, blockID := range blockIDs {
			block, err := src.Block(blockID)
			if err != nil {
				return nil, err
			}
			if err := rb.c.journal.UpdatePlacements(rb.intentID, seg.ID, map[int]string{blockID: cloudName}); err != nil {
				return nil, err
			}
			rb.uploaded = append(rb.uploaded, transfer.BlockRef{SegID: seg.ID, BlockID: blockID, Cloud: cloudName})
			if err := rb.to.engine.PutBlock(ctx, cloudName, seg.ID, blockID, block); err != nil {
				return nil, fmt.Errorf("upload to %s: %w", cloudName, err)
			}
			sums[blockID] = meta.BlockSum(block)
		}
	}
	return sums, nil
}
