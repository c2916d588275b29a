package core

import (
	"context"

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

// commitRepairs commits scrub's placement records under the quorum
// lock as they are: each names only the block IDs the cycle wrote, so
// laid on the then-current record it never clobbers a concurrent pass
// or repair placing OTHER blocks, and one whose segment was dropped
// since the scrubber read its snapshot is ignored (its repair uploads
// become orphans that stay on the clouds until ROADMAP item 2's sweep
// reclaims them).
func (c *Client) commitRepairs(ctx context.Context, changes []*meta.Change) (int64, error) {
	c.writer.Lock()
	defer c.writer.Unlock()
	c.last.Wait()
	_, err := c.lockedCommit(ctx, c.stack, func(*meta.Image) ([]*meta.Change, error) {
		return changes, nil
	})
	if err != nil {
		return 0, err
	}
	c.released(ctx, nil)
	return c.store.Stamp().Version, nil
}
