package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"unidrive/internal/meta"
	"unidrive/internal/transfer"
)

// Every maintenance operation is the same five steps: read the
// committed image through the store's delta cursor (five stamp GETs
// when nothing is pending), survey what the clouds actually hold where
// the policy needs it (one List per cloud, concurrently), let a pure
// policy over (image, survey) decide, commit its relocates under the
// quorum lock, and only then delete the blocks the commit released.
// relocate is the locked half; the policies are the short functions
// below and in scrub.go, rebalance.go and recover.go.

// relocate commits a maintenance pass's relocate changes under the
// quorum lock and then deletes the blocks the commit released, in that
// order: metadata never names a block that is already gone. build
// turns the then-current committed image into the changes and the
// doomed blocks; with no changes nothing is committed or deleted. to
// is the stack that takes the commit and the deletes — the client's
// own for every caller but SetClouds, whose relocates land on the new
// cloud set, which is the client's from then on. what names the
// operation in the lock-lost error. It returns the committed version
// (the current one when nothing changed) and the number of blocks
// deleted.
//
// Like every commit, it ends in the pass's advance stage — the only
// code that moves the device's view — and only when the folder already
// agrees with the new head, i.e. the span holds nothing but relocates.
// A file change of another device's that the lock's refresh pulled in
// is left unapplied and v_o behind it: maintenance never writes the
// folder, and the next pass, which observes the folder first, applies
// the change or turns a concurrent local edit into a conflict copy.
func (c *Client) relocate(ctx context.Context, what string, to stack,
	build func(img *meta.Image) ([]*meta.Change, []transfer.BlockRef, error)) (int64, int, error) {

	lock, err := c.locks.Acquire(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer c.releaseLock(ctx, lock)
	img, err := c.store.Refresh(ctx)
	if err != nil {
		return 0, 0, err
	}
	changes, doomed, err := build(img)
	if err != nil {
		return 0, 0, err
	}
	version := to.store.Stamp().Version
	if len(changes) > 0 {
		if !lock.Valid() {
			return 0, 0, fmt.Errorf("core: quorum lock lost during %s", what)
		}
		stats, err := to.store.Commit(ctx, changes)
		if err != nil {
			return 0, 0, err
		}
		version = stats.Version
	}
	if to.store != c.store {
		// SetClouds: the new set holds the head now, whatever happens next.
		c.mu.Lock()
		c.stack = to
		c.mu.Unlock()
	}
	deleted := c.engine.DeleteBlocks(ctx, doomed)
	if sp := c.span(); sp.moved() && len(sp.diff) == 0 {
		c.advance(ctx, sp)
	}
	return version, deleted, nil
}

// relocateChange wraps a segment's new placement in its change.
func relocateChange(seg *meta.Segment) *meta.Change {
	return &meta.Change{Type: meta.ChangeRelocate, Path: seg.ID, Segments: []*meta.Segment{seg}}
}

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
	return c.trimSurplus(ctx, "trim", func(string) bool { return true })
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
	deleted, err := c.trimSurplus(ctx, "capacity relief", func(name string) bool { return full[name] })
	c.cfg.Obs.Counter("core.capacity.pressure_deleted").Add(int64(deleted))
	return deleted, err
}

// trimSurplus deletes, on every cloud onCloud accepts, each segment's
// blocks beyond the cloud's fair share, committing the reduced
// placements first. It returns the number of blocks deleted.
func (c *Client) trimSurplus(ctx context.Context, what string, onCloud func(cloudName string) bool) (int, error) {
	fair := c.params.FairShare()
	_, deleted, err := c.relocate(ctx, what, c.stack, func(img *meta.Image) ([]*meta.Change, []transfer.BlockRef, error) {
		var changes []*meta.Change
		var doomed []transfer.BlockRef
		for _, segID := range img.SegmentIDs() {
			seg, _ := img.Segment(segID)
			surplus := surplusBlocks(seg, fair, onCloud)
			if len(surplus) == 0 {
				continue
			}
			updated := seg.Clone()
			updated.Blocks = slices.DeleteFunc(updated.Blocks, func(b meta.BlockLocation) bool {
				return slices.Contains(surplus, transfer.BlockRef{SegID: segID, BlockID: b.BlockID, Cloud: b.CloudID})
			})
			changes = append(changes, relocateChange(updated))
			doomed = append(doomed, surplus...)
		}
		return changes, doomed, nil
	})
	return deleted, err
}

// surplusBlocks returns the blocks a segment holds beyond the fair
// share on each cloud onCloud accepts. The lowest block IDs on a cloud
// are kept (the normal parity set); the surplus high IDs are the
// over-provisioned extras.
func surplusBlocks(seg *meta.Segment, fair int, onCloud func(cloudName string) bool) []transfer.BlockRef {
	perCloud := make(map[string][]int)
	for _, b := range seg.Blocks {
		if onCloud(b.CloudID) {
			perCloud[b.CloudID] = append(perCloud[b.CloudID], b.BlockID)
		}
	}
	var out []transfer.BlockRef
	for cloudName, ids := range perCloud {
		sort.Ints(ids)
		for _, id := range ids[min(fair, len(ids)):] {
			out = append(out, transfer.BlockRef{SegID: seg.ID, BlockID: id, Cloud: cloudName})
		}
	}
	return out
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
// List per cloud). It is a read-only health check; at-risk segments
// are repaired by Scrub with repair enabled.
//
// A cloud whose listing fails is UNKNOWN, not empty: its blocks are
// presumed present (so an unreachable cloud does not flood the report
// with spurious at-risk segments) and the cloud is named in
// UnknownClouds so the caller knows the verdict is partial.
func (c *Client) Fsck(ctx context.Context) (*FsckReport, error) {
	img, err := c.store.Refresh(ctx)
	if err != nil {
		return nil, err
	}
	sv := c.engine.Survey(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return fsckVerdict(img, sv), nil
}

// fsckVerdict judges the image against a survey.
func fsckVerdict(img *meta.Image, sv *transfer.Survey) *FsckReport {
	rep := &FsckReport{UnknownClouds: sv.UnknownClouds()}
	for _, segID := range img.SegmentIDs() {
		seg, _ := img.Segment(segID)
		live := 0
		for _, b := range seg.Blocks {
			if sv.Unknown(b.CloudID) || sv.Has(b.CloudID, segID, b.BlockID) {
				live++
			}
		}
		if live < seg.K {
			rep.AtRisk = append(rep.AtRisk, segID)
		}
	}
	return rep
}
