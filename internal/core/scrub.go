package core

import (
	"context"
	"fmt"

	"unidrive/internal/meta"
	"unidrive/internal/scrub"
)

// Scrub runs one anti-entropy cycle over the committed metadata:
// every referenced block copy is checked for existence and content
// integrity (see internal/scrub). With repair true, damaged copies
// are re-encoded from the surviving healthy blocks, re-uploaded, and
// the refreshed placements committed under the quorum lock.
func (c *Client) Scrub(ctx context.Context, repair bool) (*scrub.Report, error) {
	c.writer.Lock()
	c.last.Wait() // the cycle reads the clouds the last hold's deletes are changing
	c.writer.Unlock()
	s, err := scrub.New(scrub.Config{
		Engine:     c.engine,
		Image:      c.heldImage,
		Commit:     c.commitRepairs,
		Journal:    c.journal,
		Fair:       c.cfg.Fair,
		Tenant:     c.cfg.TenantID,
		Capacity:   c.cfg.Capacity,
		Params:     c.params,
		RatePerSec: c.cfg.ScrubRate,
		Device:     c.cfg.Device,
		Clock:      c.cfg.Clock,
		Obs:        c.cfg.Obs,
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
// become orphans that stay on the clouds until ROADMAP item 2's sweep
// reclaims them), and the rest are laid on
// the current record with scrub.Apply — the current RefCount is
// preserved, and only the block IDs the cycle wrote are replaced, so a
// concurrent pass or repair placing OTHER blocks is never clobbered.
func (c *Client) commitRepairs(ctx context.Context, changes []*meta.Change) (int64, error) {
	c.writer.Lock()
	defer c.writer.Unlock()
	c.last.Wait()
	_, err := c.lockedCommit(ctx, c.stack, func(img *meta.Image) ([]*meta.Change, error) {
		kept := make([]*meta.Change, 0, len(changes))
		for _, ch := range changes {
			if ch.Type != meta.ChangeRelocate || len(ch.Segments) != 1 {
				return nil, fmt.Errorf("core: scrub commit: malformed change for %q", ch.Path)
			}
			cur, ok := img.Segment(ch.Path)
			if !ok {
				continue
			}
			kept = append(kept, relocateChange(scrub.Apply(cur, ch.Segments[0])))
		}
		return kept, nil
	})
	if err != nil {
		return 0, err
	}
	c.released(ctx, nil)
	return c.store.Stamp().Version, nil
}
