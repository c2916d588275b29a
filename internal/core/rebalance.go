package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/erasure"
	"unidrive/internal/meta"
	"unidrive/internal/metacrypt"
	"unidrive/internal/sched"
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
// placements to the NEW set and switches the client over.
func (c *Client) SetClouds(ctx context.Context, newClouds []cloud.Interface) error {
	if len(newClouds) == 0 {
		return fmt.Errorf("core: cannot rebalance to zero clouds")
	}
	newCfg := c.cfg
	newCfg.Kr, newCfg.Ks = 0, 0 // re-derive for the new N
	newCfg.fillDefaults(len(newClouds))
	newParams := sched.Params{N: len(newClouds), K: newCfg.K, Kr: newCfg.Kr, Ks: newCfg.Ks}
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
	next := newStack(newCfg, newClouds, c.engine.Prober(), cipher)
	newNames := next.names
	byName := make(map[string]cloud.Interface, len(next.clouds))
	for _, cl := range next.clouds {
		byName[cl.Name()] = cl
	}

	lock, err := c.locks.Acquire(ctx)
	if err != nil {
		return err
	}
	defer c.releaseLock(ctx, lock)

	img, err := c.store.Fetch(ctx)
	if err != nil {
		return err
	}

	var relocates []*meta.Change
	for _, segID := range sortedSegmentIDs(img) {
		seg, _ := img.Segment(segID)
		placement := make(map[int]string, len(seg.Blocks))
		for _, b := range seg.Blocks {
			placement[b.BlockID] = b.CloudID
		}
		plan, err := sched.PlanRebalance(placement, newNames, seg.N, newParams)
		if err != nil {
			return fmt.Errorf("core: rebalancing segment %s: %w", segID, err)
		}
		// An empty plan still needs a metadata rewrite when the
		// placement references a removed cloud: the surviving clouds
		// already hold their fair shares (nothing to move), but the
		// dead cloud's block references must not outlive it.
		stale := false
		for _, cloudName := range placement {
			if _, ok := byName[cloudName]; !ok {
				stale = true
				break
			}
		}
		if plan.Empty() && !stale {
			continue
		}
		freshSums, err := c.executeRebalance(ctx, seg, plan, byName)
		if err != nil {
			return err
		}
		updated := seg.Clone()
		updated.Blocks = nil
		after := sched.ApplyRebalance(placement, newNames, plan)
		for blockID, cloudName := range after {
			// Block content is determined by (segment, blockID), so a
			// surviving block keeps its recorded checksum; re-encoded
			// blocks get the sum computed at upload.
			sum := freshSums[blockID]
			if sum == 0 {
				sum = seg.BlockSum(blockID)
			}
			updated.AddBlockSum(blockID, cloudName, sum)
		}
		relocates = append(relocates, &meta.Change{
			Type: meta.ChangeRelocate, Path: segID,
			Segments: []*meta.Segment{updated}, Time: time.Time{},
		})
	}

	// Commit the new placements through the store over the NEW cloud
	// set; its fetch adopts the latest state from the overlapping
	// clouds, and its commit fully repairs brand-new ones.
	if _, err := next.store.Fetch(ctx); err != nil {
		return err
	}
	if len(relocates) > 0 {
		if !lock.Valid() {
			return fmt.Errorf("core: quorum lock lost during rebalance")
		}
		if _, err := next.store.Commit(ctx, relocates); err != nil {
			return err
		}
	}

	c.mu.Lock()
	c.stack = next
	c.params = newParams
	c.cfg = newCfg
	c.last = next.store.Cached()
	c.mu.Unlock()
	return nil
}

// executeRebalance moves one segment's blocks: fetches the segment
// content (from wherever enough blocks remain), re-encodes the block
// IDs the plan wants uploaded, uploads them to their target clouds,
// and deletes reclaimed blocks. It returns the content checksum of
// every block it encoded, for stamping into the relocated placement.
func (c *Client) executeRebalance(ctx context.Context, seg *meta.Segment,
	plan sched.Rebalance, byName map[string]cloud.Interface) (map[int]uint32, error) {

	sums := make(map[int]uint32)
	if len(plan.Upload) > 0 {
		data, err := c.fetchSegment(ctx, seg)
		if err != nil {
			return nil, fmt.Errorf("core: cannot reconstruct segment %s for rebalance: %w", seg.ID, err)
		}
		coder, err := c.coder(seg.K, seg.N)
		if err != nil {
			return nil, err
		}
		// Split once, then encode each wanted block into one reused
		// pooled buffer; Upload does not retain its data argument, so
		// the buffer can be overwritten for the next block.
		sh := coder.Split(data)
		payload := erasure.GetBuffer(sh.ShardSize())
		dst := [][]byte{payload}
		uploadAll := func() error {
			for cloudName, blockIDs := range plan.Upload {
				target, ok := byName[cloudName]
				if !ok {
					return fmt.Errorf("core: rebalance target %s not in new cloud set", cloudName)
				}
				for _, blockID := range blockIDs {
					coder.EncodeBlocksInto(sh, []int{blockID}, dst)
					sums[blockID] = meta.BlockSum(payload)
					path := c.engine.BlockPath(seg.ID, blockID)
					err := cloud.Retry(ctx, cloud.DefaultRetryPolicy(c.cfg.Clock.Sleep), func() error {
						return target.Upload(ctx, path, payload)
					})
					if err != nil {
						return fmt.Errorf("core: rebalance upload to %s: %w", cloudName, err)
					}
				}
			}
			return nil
		}
		err = uploadAll()
		erasure.PutBuffer(payload)
		sh.Release()
		if err != nil {
			return nil, err
		}
	}
	for cloudName, blockIDs := range plan.Delete {
		target, ok := byName[cloudName]
		if !ok {
			continue // cloud is being removed; its blocks go with it
		}
		for _, blockID := range blockIDs {
			// Best effort: an orphaned block only wastes quota.
			_ = target.Delete(ctx, c.engine.BlockPath(seg.ID, blockID))
		}
	}
	return sums, nil
}

func sortedSegmentIDs(img *meta.Image) []string {
	out := make([]string, 0, img.NumSegments())
	for id := range img.AllSegments() {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
