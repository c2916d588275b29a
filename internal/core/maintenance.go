package core

import (
	"context"
	"fmt"
	"time"

	"unidrive/internal/meta"
	"unidrive/internal/transfer"
)

// TrimOverProvisioned reclaims over-provisioned parity blocks,
// trimming every segment back to each cloud's fair share (paper §6.2:
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
	lock, err := c.locks.Acquire(ctx)
	if err != nil {
		return 0, err
	}
	defer c.releaseLock(ctx, lock)

	img, err := c.store.Fetch(ctx)
	if err != nil {
		return 0, err
	}
	fair := c.params.FairShare()
	var changes []*meta.Change
	var doomedBlocks []transfer.BlockRef
	for _, segID := range sortedSegmentIDs(img) {
		seg, _ := img.Segment(segID)
		perCloud := make(map[string][]int)
		for _, b := range seg.Blocks {
			perCloud[b.CloudID] = append(perCloud[b.CloudID], b.BlockID)
		}
		doomed := make(map[int]string)
		updated := seg.Clone()
		for cloudName, blocks := range perCloud {
			// Keep the lowest block IDs (the normal parity set);
			// surplus high IDs are the over-provisioned extras.
			if len(blocks) <= fair {
				continue
			}
			sortInts(blocks)
			for _, b := range blocks[fair:] {
				doomed[b] = cloudName
			}
		}
		if len(doomed) == 0 {
			continue
		}
		kept := updated.Blocks[:0]
		for _, b := range updated.Blocks {
			if _, dead := doomed[b.BlockID]; !dead {
				kept = append(kept, b)
			}
		}
		updated.Blocks = kept
		changes = append(changes, &meta.Change{
			Type: meta.ChangeRelocate, Path: segID,
			Segments: []*meta.Segment{updated}, Time: time.Time{},
		})
		for b, cloudName := range doomed {
			doomedBlocks = append(doomedBlocks, transfer.BlockRef{SegID: segID, BlockID: b, Cloud: cloudName})
		}
	}
	if len(changes) == 0 {
		return 0, nil
	}
	if !lock.Valid() {
		return 0, fmt.Errorf("core: quorum lock lost during trim")
	}
	if _, err := c.store.Commit(ctx, changes); err != nil {
		return 0, err
	}
	deleted := c.engine.DeleteBlocks(ctx, doomedBlocks)
	c.setLast(c.store.Cached())
	return deleted, nil
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
	tracker := c.cfg.Capacity
	if !tracker.AnyFull() {
		return 0, nil
	}
	full := make(map[string]bool)
	for _, st := range tracker.Snapshot() {
		if st.State == "full" {
			full[st.Cloud] = true
		}
	}
	if len(full) == 0 {
		return 0, nil
	}
	lock, err := c.locks.Acquire(ctx)
	if err != nil {
		return 0, err
	}
	defer c.releaseLock(ctx, lock)

	img, err := c.store.Fetch(ctx)
	if err != nil {
		return 0, err
	}
	fair := c.params.FairShare()
	var changes []*meta.Change
	var doomedBlocks []transfer.BlockRef
	for _, segID := range sortedSegmentIDs(img) {
		seg, _ := img.Segment(segID)
		perCloud := make(map[string][]int)
		for _, b := range seg.Blocks {
			perCloud[b.CloudID] = append(perCloud[b.CloudID], b.BlockID)
		}
		doomed := make(map[int]string)
		for cloudName, blocks := range perCloud {
			if !full[cloudName] || len(blocks) <= fair {
				continue
			}
			sortInts(blocks)
			for _, b := range blocks[fair:] {
				doomed[b] = cloudName
			}
		}
		if len(doomed) == 0 {
			continue
		}
		updated := seg.Clone()
		kept := updated.Blocks[:0]
		for _, b := range updated.Blocks {
			if _, dead := doomed[b.BlockID]; !dead {
				kept = append(kept, b)
			}
		}
		updated.Blocks = kept
		changes = append(changes, &meta.Change{
			Type: meta.ChangeRelocate, Path: segID,
			Segments: []*meta.Segment{updated}, Time: time.Time{},
		})
		for b, cloudName := range doomed {
			doomedBlocks = append(doomedBlocks, transfer.BlockRef{SegID: segID, BlockID: b, Cloud: cloudName})
		}
	}
	if len(changes) == 0 {
		return 0, nil
	}
	if !lock.Valid() {
		return 0, fmt.Errorf("core: quorum lock lost during capacity relief")
	}
	if _, err := c.store.Commit(ctx, changes); err != nil {
		return 0, err
	}
	deleted := c.engine.DeleteBlocks(ctx, doomedBlocks)
	c.cfg.Obs.Counter("core.capacity.pressure_deleted").Add(int64(deleted))
	c.setLast(c.store.Cached())
	return deleted, nil
}

// GCOrphanBlocks deletes coded blocks that exist in the clouds'
// block directories but are referenced by no segment in the committed
// metadata. Orphans arise when a device uploads blocks and then fails
// before committing (the paper mandates blocks-before-metadata, so
// crashes leak blocks, never metadata). It returns the number of
// blocks removed.
//
// Only blocks whose segment is entirely absent from the pool are
// collected: a known segment's unreferenced spare blocks may belong
// to an in-flight upload on another device.
func (c *Client) GCOrphanBlocks(ctx context.Context) (int, error) {
	img, err := c.store.Fetch(ctx)
	if err != nil {
		return 0, err
	}
	var orphans []transfer.BlockRef
	for _, name := range c.engine.CloudNames() {
		names, err := c.engine.ListBlockNames(ctx, name)
		if err != nil {
			continue // unreachable cloud: collect on a later pass
		}
		for _, n := range names {
			segID, blockID, ok := parseBlockName(n)
			if !ok {
				continue
			}
			if _, known := img.Segment(segID); known {
				continue
			}
			orphans = append(orphans, transfer.BlockRef{SegID: segID, BlockID: blockID, Cloud: name})
		}
	}
	return c.engine.DeleteBlocks(ctx, orphans), nil
}

// parseBlockName splits "<segmentID>.<blockID>".
func parseBlockName(name string) (segID string, blockID int, ok bool) {
	return meta.ParseBlockName(name)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// FsckReport is the result of a metadata-vs-clouds existence check.
type FsckReport struct {
	// AtRisk lists segments with fewer than K blocks confirmed or
	// presumed present — candidates for Scrub's repair pass.
	AtRisk []string
	// UnknownClouds lists clouds whose block listing failed; their
	// blocks were presumed present, so the verdict is partial and a
	// clean AtRisk does not certify those clouds' copies.
	UnknownClouds []string
}

// Fsck verifies that every segment in the committed metadata still
// has at least K reachable blocks (spot-checking existence via one
// List per referenced cloud). It is a read-only health check; at-risk
// segments are repaired by Scrub with repair enabled.
//
// A cloud whose listing fails is UNKNOWN, not empty: its blocks are
// presumed present (so an unreachable cloud does not flood the report
// with spurious at-risk segments) and the cloud is named in
// UnknownClouds so the caller knows the verdict is partial.
func (c *Client) Fsck(ctx context.Context) (*FsckReport, error) {
	img, err := c.store.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	rep := &FsckReport{}
	present := make(map[string]bool)
	unknown := make(map[string]bool)
	for _, name := range c.engine.CloudNames() {
		names, err := c.engine.ListBlockNames(ctx, name)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			unknown[name] = true
			rep.UnknownClouds = append(rep.UnknownClouds, name)
			continue
		}
		for _, n := range names {
			present[name+"/"+n] = true
		}
	}
	for _, segID := range sortedSegmentIDs(img) {
		seg, _ := img.Segment(segID)
		live := 0
		for _, b := range seg.Blocks {
			if unknown[b.CloudID] || present[b.CloudID+"/"+meta.BlockName(segID, b.BlockID)] {
				live++
			}
		}
		if live < seg.K {
			rep.AtRisk = append(rep.AtRisk, segID)
		}
	}
	return rep, nil
}
