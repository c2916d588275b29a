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
//	                           reclaim it; so is every surveyed block of
//	                           a segment the commit released and the
//	                           image does not hold (journaled with the
//	                           commit, or the batch's paths in the
//	                           pre-crash view, gone from the image),
//	                           which the hold would have deleted,
//	                           unless an uncommitted upload intent
//	                           names it (a later pass re-adding
//	                           the content: that intent judges its
//	                           blocks); clear the intent.
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
// deleted, and a later recovery picks them up; what no recovery
// revisits stays on the cloud until ROADMAP item 2's sweep.
func (c *Client) Recover(ctx context.Context) (RecoveryReport, error) {
	c.writer.Lock()
	defer c.writer.Unlock()
	c.last.Wait()
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
		// Not yet applied: still at the pre-apply state. Suppress so the
		// scan stays quiet; the resumed apply rewrites it (its content
		// differs from the new snapshot, so the content-equal skip will
		// not fire).
		old := c.lastImage().Lookup(path).Current()
		if c.shield(path, snap, known) ||
			snap != nil && !snap.Deleted && old != nil && !old.Deleted && c.shield(path, old, known) {
			suppressed++
		}
	}
	return suppressed
}

// shield suppresses path when the folder already agrees with snap — it
// holds snap's content, or snap is absent or a tombstone and the file
// the restored baseline knew is gone — and reports whether it did.
func (c *Client) shield(path string, snap *meta.Snapshot, known map[string]bool) bool {
	if snap == nil || snap.Deleted {
		_, err := c.folder.Stat(path)
		gone := err != nil && known[path]
		if gone {
			c.suppress(path, 0, time.Time{}, true)
		}
		return gone
	}
	fi, ok := c.localMatches(path, snap)
	if ok {
		c.suppress(path, fi.Size, fi.ModTime, false)
	}
	return ok
}

// recoverRepair replays a scrub-repair intent that died before its
// placement commit. Repair writes are either overwrites of committed
// block paths (harmless: the content of a block is determined by its
// name) or fresh copies at locations no committed metadata references
// — the latter are orphans to reclaim. Survey is trust-but-verify,
// same as upload recovery: only blocks that actually exist in the
// clouds are touched, and only when the committed image does not
// reference them.
func (c *Client) recoverRepair(ctx context.Context, in *journal.Intent, img *meta.Image, sv *transfer.Survey) int {
	var orphans []transfer.BlockRef
	for _, b := range surveyedBlocks(sv, in.SegmentIDs()) {
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

// uploadingSegments returns the segments the journal's uncommitted
// upload intents name.
func (c *Client) uploadingSegments() map[string]bool {
	segs := make(map[string]bool)
	for _, in := range c.journal.Active() {
		if in.Kind == journal.KindUpload && in.State != journal.StateCommitted {
			for _, id := range in.SegmentIDs() {
				segs[id] = true
			}
		}
	}
	return segs
}

// surveyedBlocks hands an intent the blocks of the segments ids (sorted)
// that exist in the clouds, and takes them out of the survey: each
// block is judged once, so a later intent naming the same segment can
// neither adopt what this one reclaims nor reclaim what this one adopts.
func surveyedBlocks(sv *transfer.Survey, ids []string) []transfer.BlockRef {
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

	var orphans []transfer.BlockRef
	if committed {
		// The segments the commit released, which the hold would
		// have deleted before clearing the intent: those journaled with
		// the commit — the pass may have moved v_o past it before the
		// crash — and, for a crash before the journal heard of the
		// commit, the device's pre-crash view against the committed
		// image, for the batch's paths. Every surveyed block of those the
		// image does not hold goes, but for those an uncommitted upload
		// intent names: a later pass that re-added their content may
		// have uploaded them again, and that intent adopts or reclaims
		// its blocks itself.
		released := slices.Clone(in.Released)
		for _, seg := range releasedSegments(c.lastImage(), img, in.Changes) {
			released = append(released, seg.ID)
		}
		uploading := c.uploadingSegments()
		released = slices.DeleteFunc(released, func(id string) bool {
			_, alive := img.Segment(id)
			return alive || uploading[id]
		})
		slices.Sort(released)
		orphans = surveyedBlocks(sv, slices.Compact(released))
		// The commit landed before the crash, but the restored scanner
		// baseline predates it: without suppression the next scan
		// re-detects the batch as fresh local edits and re-uploads
		// every block — the duplicates placed on different clouds than
		// the committed copies would be instant orphans.
		for _, ch := range in.Changes {
			snap := img.Lookup(ch.Path).Current()
			if ch.Type == meta.ChangeDelete {
				snap = nil
			} else if snap == nil || snap.Deleted {
				continue
			}
			if c.shield(ch.Path, snap, known) {
				rep.PathsSuppressed++
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
	for _, b := range surveyedBlocks(sv, in.SegmentIDs()) {
		pool, _ := img.Segment(b.SegID)
		switch {
		case pool != nil && pool.HasBlock(b.BlockID, b.Cloud):
			// Referenced by committed metadata: not ours to touch.
		case !committed && resumable[b.SegID] && pool == nil && c.recovered[b.SegID][b.BlockID] == "":
			c.addRecovered(b.SegID, b.BlockID, b.Cloud)
			adopted++
		default:
			// Unreferenced, or a second copy of a block adopted on
			// another cloud (left by an earlier upload of the same
			// content): nothing will name it.
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
// still cuts into exactly the snapshot's segments.
func (c *Client) localMatches(path string, snap *meta.Snapshot) (localfs.FileInfo, bool) {
	fi, err := c.folder.Stat(path)
	if err != nil || fi.Size != snap.Size {
		return fi, false
	}
	local := c.readSnapshot(c.folder, path)
	return fi, local != nil && local.ContentEquals(snap)
}

// addRecovered records an adopted block placement for startUpload to
// consume when the segment is next planned.
func (c *Client) addRecovered(segID string, blockID int, cloudName string) {
	m := c.recovered[segID]
	if m == nil {
		m = make(map[int]string)
		c.recovered[segID] = m
	}
	m[blockID] = cloudName
}

// takeRecovered removes and returns the adopted placements for a
// segment (nil when none). Single-shot: once a pass has seeded a plan
// with the blocks, its stamp names them in the change batch, and a
// stale copy here could poison a later, different upload of the same
// content.
func (c *Client) takeRecovered(segID string) map[int]string {
	m := c.recovered[segID]
	delete(c.recovered, segID)
	return m
}
