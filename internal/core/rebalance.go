package core

import (
	"context"
	"fmt"
	"slices"

	"unidrive/internal/cloud"
	"unidrive/internal/erasure"
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
func (c *Client) SetClouds(ctx context.Context, newClouds []cloud.Interface) error {
	c.writer.Lock()
	defer c.writer.Unlock()
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

	var doomed []transfer.BlockRef
	_, err = c.lockedCommit(ctx, next, func(img *meta.Image) (relocates []*meta.Change, err error) {
		for _, segID := range img.SegmentIDs() {
			seg, _ := img.Segment(segID)
			placement := make(map[int]string, len(seg.Blocks))
			for _, b := range seg.Blocks {
				placement[b.BlockID] = b.CloudID
			}
			plan, err := sched.PlanRebalance(placement, next.names, seg.N, newParams)
			if err != nil {
				return nil, fmt.Errorf("core: rebalancing segment %s: %w", segID, err)
			}
			// An empty plan still needs a metadata rewrite when the
			// placement references a removed cloud: the surviving clouds
			// already hold their fair shares (nothing to move), but the
			// dead cloud's block references must not outlive it.
			stale := slices.ContainsFunc(seg.Blocks, func(b meta.BlockLocation) bool {
				return !slices.Contains(next.names, b.CloudID)
			})
			if plan.Empty() && !stale {
				continue
			}
			freshSums, err := c.uploadRebalanced(ctx, seg, plan, next.engine)
			if err != nil {
				return nil, err
			}
			for cloudName, blockIDs := range plan.Delete {
				if !slices.Contains(next.names, cloudName) {
					continue // cloud is being removed; its blocks go with it
				}
				for _, blockID := range blockIDs {
					doomed = append(doomed, transfer.BlockRef{SegID: segID, BlockID: blockID, Cloud: cloudName})
				}
			}
			updated := seg.Clone()
			updated.Blocks = nil
			for blockID, cloudName := range sched.ApplyRebalance(placement, next.names, plan) {
				// Block content is determined by (segment, blockID), so a
				// surviving block keeps its recorded checksum; re-encoded
				// blocks get the sum computed at upload.
				sum, fresh := freshSums[blockID]
				if !fresh {
					sum = seg.BlockSum(blockID)
				}
				updated.AddBlockSum(blockID, cloudName, sum)
			}
			relocates = append(relocates, relocateChange(updated))
		}
		// The commit goes through the store over the NEW cloud set; its
		// refresh adopts the latest state from the overlapping clouds,
		// and its commit fully repairs brand-new ones.
		_, err = next.store.Refresh(ctx)
		return relocates, err
	})
	if err != nil {
		return err
	}
	// The new set holds the head now; the writer keeps every other
	// operation off the stack while it changes.
	c.stack = next
	c.released(ctx, doomed)
	return nil
}

// uploadRebalanced writes the blocks one segment's rebalance plan
// wants uploaded: it fetches the segment content (from wherever enough
// blocks remain in the OLD set), re-encodes the wanted block IDs and
// puts them on their target clouds through the new set's engine. It
// returns the content checksum of every block it encoded, for
// stamping into the relocated placement. The blocks the plan reclaims
// are deleted by the caller, after the commit.
func (c *Client) uploadRebalanced(ctx context.Context, seg *meta.Segment,
	plan sched.Rebalance, to *transfer.Engine) (map[int]uint32, error) {

	sums := make(map[int]uint32)
	if len(plan.Upload) == 0 {
		return sums, nil
	}
	data, err := c.fetchSegment(ctx, seg)
	if err != nil {
		return nil, fmt.Errorf("core: cannot reconstruct segment %s for rebalance: %w", seg.ID, err)
	}
	coder, err := erasure.CoderFor(seg.K, seg.N)
	if err != nil {
		return nil, err
	}
	// Split once, then encode each wanted block into one reused
	// pooled buffer; PutBlock does not retain its data argument, so
	// the buffer can be overwritten for the next block.
	sh := coder.Split(data)
	defer sh.Release()
	payload := erasure.GetBuffer(sh.ShardSize())
	defer erasure.PutBuffer(payload)
	dst := [][]byte{payload}
	for cloudName, blockIDs := range plan.Upload {
		for _, blockID := range blockIDs {
			coder.EncodeBlocksInto(sh, []int{blockID}, dst)
			sums[blockID] = meta.BlockSum(payload)
			if err := to.PutBlock(ctx, cloudName, seg.ID, blockID, payload); err != nil {
				return nil, fmt.Errorf("core: rebalance upload to %s: %w", cloudName, err)
			}
		}
	}
	return sums, nil
}
