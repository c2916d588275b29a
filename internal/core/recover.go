package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/transfer"
)

// RecoveryReport summarizes one journal replay.
type RecoveryReport struct {
	// IntentsReplayed counts journal intents examined (all of them).
	IntentsReplayed int
	// IntentsRetained counts uncommitted upload intents left in the
	// journal because their blocks were adopted for resumption: the
	// record keeps covering those blocks until the resumed pass
	// re-journals or commits them.
	IntentsRetained int
	// BlocksResumed counts surviving blocks adopted from interrupted
	// uploads (they will not be re-uploaded).
	BlocksResumed int
	// OrphansReclaimed counts blocks deleted from the clouds because no
	// committed metadata references them.
	OrphansReclaimed int
	// PathsSuppressed counts half-applied files recognized as already
	// matching the committed image and shielded from re-detection as
	// local edits.
	PathsSuppressed int
}

// Recover replays the intent journal left behind by a crashed pass.
// Call it once at startup, after LoadState and before the first
// SyncOnce.
//
// Decision table, per intent:
//
//	apply                    → suppress every journaled path whose local
//	                           content matches the committed image (the
//	                           crash landed after its write) or the
//	                           device's pre-apply image (the crash
//	                           landed before it); clear the intent.
//	                           Unwritten paths are re-applied by the
//	                           next ordinary pass.
//	upload, committed        → the commit landed (recorded state, or the
//	                           image already reflects the change batch):
//	                           every surveyed block of the intent's
//	                           segments that the image does not
//	                           reference is reliability-phase surplus —
//	                           reclaim it; clear the intent.
//	upload, uncommitted,
//	  local file unchanged   → resume: adopt surveyed blocks of the
//	                           batch's segments so the re-upload skips
//	                           them; RETAIN the intent until the
//	                           resumed pass supersedes it.
//	upload, uncommitted,
//	  local file changed     → the batch is stale (the user edited the
//	                           file again before recovery ran): its
//	                           unreferenced blocks are orphans —
//	                           reclaim them; clear the intent.
//
// Survey is trust-but-verify: journaled placements are hints only;
// what actually survives in each cloud is established by listing the
// block directories — one transfer.Engine.Survey for the whole
// journal, taken when the first intent needs it. A cloud whose listing
// fails contributes nothing — its blocks are neither adopted nor
// deleted, and a later recovery or GC pass picks them up.
func (c *Client) Recover(ctx context.Context) (RecoveryReport, error) {
	var rep RecoveryReport
	if c.journal.Len() == 0 {
		return rep, nil
	}
	// Decisions are made against the latest committed image, not the
	// device's possibly stale local view.
	img, err := c.store.Refresh(ctx)
	if err != nil {
		return rep, fmt.Errorf("core: recovery needs the committed image: %w", err)
	}
	survey := sync.OnceValue(func() *transfer.Survey { return c.engine.Survey(ctx) })
	// Only paths the restored scanner baseline knows can produce a
	// Removed event worth suppressing; an unconditional suppression
	// would linger and swallow a future genuine deletion.
	known := make(map[string]bool)
	for _, fi := range c.scanner.Baseline() {
		known[fi.Path] = true
	}
	for _, in := range c.journal.Active() {
		switch in.Kind {
		case journal.KindApply:
			rep.PathsSuppressed += c.recoverApply(in, img, known)
			if err := c.journal.Clear(in.ID); err != nil {
				return rep, err
			}
		case journal.KindUpload:
			retained, err := c.recoverUpload(ctx, in, img, survey(), known, &rep)
			if err != nil {
				return rep, err
			}
			if retained {
				rep.IntentsRetained++
			}
		case journal.KindRepair:
			rep.OrphansReclaimed += c.recoverRepair(ctx, in, img, survey())
			if err := c.journal.Clear(in.ID); err != nil {
				return rep, err
			}
		default:
			// Unknown kind (newer format?): drop rather than wedge.
			if err := c.journal.Clear(in.ID); err != nil {
				return rep, err
			}
		}
		rep.IntentsReplayed++
		c.cfg.Obs.Counter("journal.recovered").Inc()
	}
	return rep, nil
}

// recoverApply shields a half-applied cloud update from being
// re-detected as local edits. A journaled path is in one of two
// legitimate states: its on-disk content matches the committed image
// (the crash landed after its write) or it still matches the device's
// pre-apply view (the crash landed before). Both are suppressed — the
// persisted scanner baseline predates the interrupted apply, so
// without suppression either state scans as a fresh local edit and
// gets re-committed. A path matching neither was touched by the user
// after the crash and is reported normally.
func (c *Client) recoverApply(in *journal.Intent, img *meta.Image, known map[string]bool) int {
	suppressed := 0
	for _, path := range in.Paths {
		snap := img.Lookup(path).Current()
		if snap == nil || snap.Deleted {
			if _, err := c.folder.Stat(path); err != nil && known[path] {
				c.suppress(path, 0, time.Time{}, true)
				suppressed++
			}
			continue
		}
		if fi, ok := c.localMatches(path, snap); ok {
			c.suppress(path, fi.Size, fi.ModTime, false)
			suppressed++
			continue
		}
		// Not yet applied: still at the pre-apply state. Suppress so the
		// scan stays quiet; the resumed apply rewrites it (its content
		// differs from the new snapshot, so the content-equal skip will
		// not fire).
		if old := c.lastImage().Lookup(path).Current(); old != nil && !old.Deleted {
			if fi, ok := c.localMatches(path, old); ok {
				c.suppress(path, fi.Size, fi.ModTime, false)
				suppressed++
			}
		}
	}
	return suppressed
}

// recoverRepair replays a scrub-repair intent that died before its
// relocate commit. Repair writes are either overwrites of committed
// block paths (harmless: the content of a block is determined by its
// name) or fresh copies at locations no committed metadata references
// — the latter are orphans to reclaim. Survey is trust-but-verify,
// same as upload recovery: only blocks that actually exist in the
// clouds are touched, and only when the committed image does not
// reference them.
func (c *Client) recoverRepair(ctx context.Context, in *journal.Intent, img *meta.Image, sv *transfer.Survey) int {
	var orphans []transfer.BlockRef
	for _, b := range surveyedBlocks(sv, in) {
		if pool, _ := img.Segment(b.SegID); pool != nil && pool.HasBlock(b.BlockID, b.Cloud) {
			continue // referenced by committed metadata: not ours
		}
		// Only locations this repair intended to write are ours to
		// judge; anything else on the clouds belongs to another pass.
		if in.Placements[b.SegID][b.BlockID] == b.Cloud {
			orphans = append(orphans, b)
		}
	}
	return c.reclaimOrphans(ctx, orphans)
}

// surveyedBlocks hands an intent the blocks of its segments that exist
// in the clouds, and takes them out of the survey: each block is
// judged once, so a later intent naming the same segment can neither
// adopt what this one reclaims nor reclaim what this one adopts.
func surveyedBlocks(sv *transfer.Survey, in *journal.Intent) []transfer.BlockRef {
	ids := in.SegmentIDs() // sorted
	blocks := sv.Blocks(func(segID string) bool {
		_, ok := slices.BinarySearch(ids, segID)
		return ok
	})
	sv.Forget(blocks)
	return blocks
}

// reclaimOrphans deletes blocks recovery judged unreferenced and
// reports how many went.
func (c *Client) reclaimOrphans(ctx context.Context, orphans []transfer.BlockRef) int {
	n := c.engine.DeleteBlocks(ctx, orphans)
	c.cfg.Obs.Counter("journal.orphans_reclaimed").Add(int64(n))
	return n
}

// recoverUpload replays one upload intent per the decision table,
// reporting whether the intent was retained (blocks adopted for
// resumption).
func (c *Client) recoverUpload(ctx context.Context, in *journal.Intent, img *meta.Image, sv *transfer.Survey, known map[string]bool, rep *RecoveryReport) (bool, error) {
	committed := in.State == journal.StateCommitted || c.changesReflected(img, in.Changes)

	if committed {
		// The commit landed before the crash, but the restored scanner
		// baseline predates it: without suppression the next scan
		// re-detects the batch as fresh local edits and re-uploads
		// every block — the duplicates placed on different clouds than
		// the committed copies would be instant orphans.
		for _, ch := range in.Changes {
			switch ch.Type {
			case meta.ChangeAdd, meta.ChangeEdit:
				snap := img.Lookup(ch.Path).Current()
				if snap == nil || snap.Deleted {
					continue
				}
				if fi, ok := c.localMatches(ch.Path, snap); ok {
					c.suppress(ch.Path, fi.Size, fi.ModTime, false)
					rep.PathsSuppressed++
				}
			case meta.ChangeDelete:
				if _, err := c.folder.Stat(ch.Path); err != nil && known[ch.Path] {
					c.suppress(ch.Path, 0, time.Time{}, true)
					rep.PathsSuppressed++
				}
			}
		}
	}

	// A segment is resumable when the file that produced it still cuts
	// into the same segments: the crashed upload's surviving blocks
	// carry exactly the bytes the next pass would re-encode.
	resumable := make(map[string]bool)
	if !committed {
		for _, ch := range in.Changes {
			if ch.Type != meta.ChangeAdd && ch.Type != meta.ChangeEdit || ch.Snapshot == nil {
				continue
			}
			if _, ok := c.localMatches(ch.Path, ch.Snapshot); ok {
				for _, id := range ch.Snapshot.SegmentIDs {
					resumable[id] = true
				}
			}
		}
	}

	adopted := 0
	var orphans []transfer.BlockRef
	for _, b := range surveyedBlocks(sv, in) {
		pool, _ := img.Segment(b.SegID)
		switch {
		case pool != nil && pool.HasBlock(b.BlockID, b.Cloud):
			// Referenced by committed metadata: not ours to touch.
		case !committed && resumable[b.SegID] && pool == nil:
			c.addRecovered(b.SegID, b.BlockID, b.Cloud)
			adopted++
		default:
			orphans = append(orphans, b)
		}
	}
	rep.OrphansReclaimed += c.reclaimOrphans(ctx, orphans)
	rep.BlocksResumed += adopted
	c.cfg.Obs.Counter("journal.resumed_blocks").Add(int64(adopted))

	if !committed && adopted > 0 {
		// Keep the record: the adopted blocks stay covered until the
		// resumed pass journals its own intent (same batch, same ID) or
		// a later recovery finds them committed. A lingering record
		// costs the next startup its survey, never data.
		return true, nil
	}
	return false, c.journal.Clear(in.ID)
}

// changesReflected reports whether the committed image already contains
// the outcome of every change in the batch — how recovery detects a
// crash that landed after the metadata commit but before the journal
// recorded it.
func (c *Client) changesReflected(img *meta.Image, changes []*meta.Change) bool {
	if len(changes) == 0 {
		return false
	}
	for _, ch := range changes {
		entry := img.Lookup(ch.Path)
		switch ch.Type {
		case meta.ChangeAdd, meta.ChangeEdit:
			found := false
			if entry != nil {
				for _, snap := range entry.Snapshots {
					if snap.ContentEquals(ch.Snapshot) {
						found = true
						break
					}
				}
			}
			if !found {
				return false
			}
		case meta.ChangeDelete:
			if cur := entry.Current(); cur != nil && !cur.Deleted {
				return false
			}
		}
	}
	return true
}

// localMatches reports whether the folder's current content at path
// still cuts into exactly the snapshot's segments. It reads and
// re-chunks the file; unlike chunkFile it has no caching side effects.
func (c *Client) localMatches(path string, snap *meta.Snapshot) (localfs.FileInfo, bool) {
	fi, err := c.folder.Stat(path)
	if err != nil || fi.Size != snap.Size {
		return fi, false
	}
	data, err := c.folder.ReadFile(path)
	if err != nil || int64(len(data)) != snap.Size {
		return fi, false
	}
	segs := c.chnk.Split(data)
	if len(segs) != len(snap.SegmentIDs) {
		return fi, false
	}
	for i, s := range segs {
		if s.ID() != snap.SegmentIDs[i] {
			return fi, false
		}
	}
	return fi, true
}

// addRecovered records an adopted block placement for chunkFile to
// consume when the segment is next re-chunked.
func (c *Client) addRecovered(segID string, blockID int, cloudName string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.recovered[segID]
	if m == nil {
		m = make(map[int]string)
		c.recovered[segID] = m
	}
	m[blockID] = cloudName
}

// takeRecovered removes and returns the adopted placements for a
// segment (nil when none). Single-shot: once a pass has folded the
// blocks into a segment record they ride in the change batch, and a
// stale copy here could poison a later, different upload of the same
// content.
func (c *Client) takeRecovered(segID string) map[int]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.recovered[segID]
	delete(c.recovered, segID)
	return m
}
