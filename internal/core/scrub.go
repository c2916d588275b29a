package core

import (
	"context"
	"fmt"
	"slices"

	"unidrive/internal/meta"
	"unidrive/internal/scrub"
	"unidrive/internal/transfer"
)

// Scrub runs one anti-entropy cycle over the committed metadata:
// every referenced block copy is checked for existence and content
// integrity (see internal/scrub). With repair true, damaged copies
// are re-encoded from the surviving healthy blocks, re-uploaded, and
// the refreshed placements committed under the quorum lock; legacy
// pre-checksum locations get their stamps backfilled in the same
// commit.
func (c *Client) Scrub(ctx context.Context, repair bool) (*scrub.Report, error) {
	s, err := scrub.New(scrub.Config{
		Engine:      c.engine,
		Image:       c.store.Refresh,
		Commit:      c.commitRepairs,
		Journal:     c.journal,
		Fair:        c.cfg.Fair,
		Tenant:      c.cfg.TenantID,
		Capacity:    c.cfg.Capacity,
		Target:      c.params.NormalBlocks(),
		MaxPerCloud: c.params.MaxPerCloud(),
		RatePerSec:  c.cfg.ScrubRate,
		Device:      c.cfg.Device,
		Clock:       c.cfg.Clock,
		Obs:         c.cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	if repair && c.cfg.Capacity.AnyFull() {
		// Pressure valve before the cycle: reclaiming over-provisioned
		// extras from full clouds may free exactly the space the
		// cycle's repairs and thin re-expansions need.
		if _, err := c.RelieveCapacityPressure(ctx); err != nil {
			c.cfg.Obs.Counter("core.capacity.pressure_failed").Inc()
		}
	}
	return s.Cycle(ctx, repair)
}

// commitRepairs commits scrub relocate changes under the quorum lock,
// re-validated against the then-current image: a segment dropped
// since the scrubber read its snapshot is skipped (its repair uploads
// become orphans the next GC pass reclaims), the current RefCount is
// preserved, and locations of block IDs the scrubber touched replace
// the current record per block ID — so a concurrent reliability pass
// adding copies of OTHER blocks is never clobbered.
func (c *Client) commitRepairs(ctx context.Context, changes []*meta.Change) (int64, error) {
	version, _, err := c.relocate(ctx, "scrub commit", c.stack, func(img *meta.Image) ([]*meta.Change, []transfer.BlockRef, error) {
		kept := make([]*meta.Change, 0, len(changes))
		for _, ch := range changes {
			if ch.Type != meta.ChangeRelocate || len(ch.Segments) != 1 {
				return nil, nil, fmt.Errorf("core: scrub commit: malformed change for %q", ch.Path)
			}
			cur, ok := img.Segment(ch.Path)
			if !ok {
				continue
			}
			want := ch.Segments[0]
			merged := cur.Clone()
			merged.Blocks = slices.DeleteFunc(merged.Blocks, func(b meta.BlockLocation) bool {
				return slices.ContainsFunc(want.Blocks, func(w meta.BlockLocation) bool { return w.BlockID == b.BlockID })
			})
			for _, b := range want.Blocks {
				merged.AddBlockSum(b.BlockID, b.CloudID, b.Checksum)
			}
			// The scrubber's thin verdict is authoritative: re-expansion
			// clears the mark, a capacity-blocked repair leaves it.
			merged.Thin = want.Thin
			kept = append(kept, relocateChange(merged))
		}
		return kept, nil, nil
	})
	return version, err
}
