package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/qlock"
	"unidrive/internal/sched"
	"unidrive/internal/transfer"
)

// SyncReport summarizes one SyncOnce pass.
type SyncReport struct {
	// LocalChanges is the number of local file changes committed.
	LocalChanges int
	// CloudChanges is the number of remote file changes applied to
	// the local folder.
	CloudChanges int
	// Conflicts lists conflict-copy paths created during this pass.
	Conflicts []string
	// Upload summarizes data-plane upload work.
	Upload uploadOutcome
	// Version is the metadata version after the pass.
	Version int64
	// AvailableDuration is the time from the start of the pass until
	// every committed file was AVAILABLE in the multi-cloud (K blocks
	// per segment uploaded and metadata committed) — the paper's
	// "available time" metric (§7.1). The pass itself runs longer: it
	// also completes the upload to reliability and records the final
	// placements. Zero when no local changes were committed.
	AvailableDuration time.Duration
}

// ScanLocal polls the sync folder once and records detected changes
// in the ChangedFileList. It is called by SyncOnce but is exported so
// tests and tools can drive detection explicitly.
func (c *Client) ScanLocal() error {
	_, _, err := c.scanFull()
	return err
}

// scanFull walks the whole folder and records every detected change;
// it returns the number of files examined and changes recorded.
func (c *Client) scanFull() (statted, recorded int, err error) {
	events, statted, err := c.scanner.ScanAll()
	if err != nil {
		return statted, 0, fmt.Errorf("core: scanning folder: %w", err)
	}
	recorded, err = c.recordEvents(events)
	return statted, recorded, err
}

// scanDirty stats only the given paths — the dirty set accumulated
// from watcher notifications — and records the real changes among
// them. Cost is O(len(paths)) regardless of folder size.
func (c *Client) scanDirty(paths []string) (statted, recorded int, err error) {
	events, statted, err := c.scanner.ScanDirty(paths)
	if err != nil {
		return statted, 0, fmt.Errorf("core: scanning dirty paths: %w", err)
	}
	recorded, err = c.recordEvents(events)
	return statted, recorded, err
}

// recordEvents converts scanner events into ChangedFileList entries.
// Modified events are guarded against spurious mtime changes
// (touch(1), editors rewriting identical bytes): the re-chunked
// content is compared against the committed snapshot, and an
// identical file records nothing — re-uploading it would waste a
// commit and a metadata version. Skips are counted under
// scan.spurious_mtime.
func (c *Client) recordEvents(events []localfs.Event) (int, error) {
	recorded := 0
	for _, ev := range events {
		// Every event moved the scanner's baseline entry for its path,
		// including the spurious ones skipped below.
		c.noteDirty(ev.Info.Path)
		switch ev.Kind {
		case localfs.Added, localfs.Modified:
			data, err := c.folder.ReadFile(ev.Info.Path)
			if err != nil {
				if errors.Is(err, localfs.ErrNotExist) {
					continue // deleted between scan and read
				}
				return recorded, err
			}
			snap, segs := c.chunkFile(ev.Info, data)
			typ := meta.ChangeAdd
			if ev.Kind == localfs.Modified {
				typ = meta.ChangeEdit
				if known := c.lastImage().Lookup(ev.Info.Path).Current(); snap.ContentEquals(known) {
					c.cfg.Obs.Counter("scan.spurious_mtime").Inc()
					continue
				}
			}
			err = c.changes.Record(&meta.Change{
				Type: typ, Path: ev.Info.Path,
				Snapshot: snap, Segments: segs, Time: ev.Info.ModTime,
			})
			if err != nil {
				return recorded, err
			}
			recorded++
		case localfs.Removed:
			// Stamp the scan-observed time: the tombstone committed for
			// this delete carries it, and a zero time would make a
			// deleted-then-recreated path look infinitely old to any
			// reader ordering versions by timestamp.
			if err := c.changes.Record(&meta.Change{
				Type: meta.ChangeDelete, Path: ev.Info.Path, Time: c.cfg.Clock.Now(),
			}); err != nil {
				return recorded, err
			}
			recorded++
		}
	}
	return recorded, nil
}

// observeScan records one scan's control-plane cost in the obs
// histograms that the sync-pass benchmark and operators read.
func (c *Client) observeScan(elapsed time.Duration, statted, recorded int) {
	if c.cfg.Obs == nil {
		return
	}
	c.cfg.Obs.Histogram("sync.pass.scan_ms").Observe(float64(elapsed) / float64(time.Millisecond))
	c.cfg.Obs.Histogram("sync.pass.files_statted").Observe(float64(statted))
	c.cfg.Obs.Histogram("sync.pass.changes").Observe(float64(recorded))
}

// SyncOnce runs one pass of the paper's Algorithm 1 (SyncMetadata),
// extended with the data-plane work around it:
//
//  1. detect local updates (ChangedFileList);
//  2. if any: upload their data blocks (freely, before metadata);
//     acquire the quorum lock; if a cloud update is pending, fetch
//     and reconcile (conflict copies for coincidental updates);
//     commit the metadata; release the lock;
//  3. otherwise: if a cloud update is pending, fetch it and apply to
//     the local folder (downloading any K blocks per segment).
func (c *Client) SyncOnce(ctx context.Context) (SyncReport, error) {
	var report SyncReport
	scanStart := c.cfg.Clock.Now()
	statted, recorded, err := c.scanFull()
	if err != nil {
		return report, err
	}
	c.observeScan(c.cfg.Clock.Now().Sub(scanStart), statted, recorded)
	err = c.syncPass(ctx, &report, true)
	return report, err
}

// SyncDirty is the event-driven counterpart of SyncOnce: it scans
// only the given dirty paths and commits whatever real changes they
// contain. It does not poll the clouds when there is nothing to
// commit — remote updates are the remote observer's job (SyncRemote)
// — so an over-reporting watcher costs a few stats, not a network
// round-trip. Pass cost is O(len(paths) + changes), independent of
// folder size.
func (c *Client) SyncDirty(ctx context.Context, paths []string) (SyncReport, error) {
	var report SyncReport
	scanStart := c.cfg.Clock.Now()
	statted, recorded, err := c.scanDirty(paths)
	if err != nil {
		return report, err
	}
	c.observeScan(c.cfg.Clock.Now().Sub(scanStart), statted, recorded)
	if c.changes.Empty() {
		// Nothing real changed (or everything was suppressed): the pass
		// ends here, touching neither the network nor the image.
		report.Version = c.lastImage().Version
		return report, nil
	}
	err = c.syncPass(ctx, &report, false)
	return report, err
}

// SyncRemote runs the remote half of a pass: poll the version stamps,
// refresh the cached metadata if a commit is pending, and apply it to
// the local folder. No local scan happens; pending local changes from
// an earlier failed pass are still committed first, since committing
// under the lock subsumes the refresh.
func (c *Client) SyncRemote(ctx context.Context) (SyncReport, error) {
	var report SyncReport
	err := c.syncPass(ctx, &report, true)
	return report, err
}

// syncPass is the shared tail of every sync variant: commit pending
// local changes if any (optionally polling and refreshing from the
// clouds first when there are none), then apply whatever is newly
// committed to the local folder. When nothing was committed anywhere,
// the pass is a no-op that never materializes or diffs an image —
// the property that makes event-driven passes O(changes).
func (c *Client) syncPass(ctx context.Context, report *SyncReport, pollRemote bool) error {
	before := c.lastImage()

	// scanned is what this pass's commit read from disk, as scanned
	// (before reconciliation moves a conflicting edit aside).
	scanned := c.changes.Snapshot()
	if len(scanned) > 0 {
		if err := c.commitLocal(ctx, report); err != nil {
			return err
		}
	} else if pollRemote {
		if _, err := c.store.Refresh(ctx); err != nil {
			return err
		}
	}

	after := c.store.CachedShared()
	report.Version = after.Version
	if after.Version == before.Version && after.Device == before.Device {
		// Nothing new, locally or remotely. Skip the apply/GC machinery
		// and the checkpoint.
		return nil
	}
	diff, gcPaths := c.diffForApply(before, after)
	n, err := c.applyCloudUpdate(ctx, before, after, diff, scanned)
	if err != nil {
		return err
	}
	report.CloudChanges = n
	c.setLast(after)
	c.gcSegments(ctx, before, after, gcPaths)
	// Best effort: a failed checkpoint only costs restart efficiency,
	// not correctness.
	_ = c.checkpoint()
	return nil
}

// diffForApply computes the per-path difference between two cached
// images. When the store's version chain covers the (before, after]
// span, only the paths named by the chain's change records are
// compared — O(changes in the span) instead of the O(folder) tree
// walk of meta.DiffImages, which is what keeps applying passes flat
// as the folder grows. The second result is the garbage-collection
// candidate set: the unique file paths the chain reported changed
// (including ones whose current content ended up equal — their entry
// may still have shed segment references), or nil when the chain did
// not cover the span and the caller must consider every path.
func (c *Client) diffForApply(before, after *meta.Image) (meta.Diff, []string) {
	if after.Version > before.Version {
		if changes, ok := c.store.ChangesSince(before.Version, after.Version); ok {
			c.cfg.Obs.Counter("sync.diff.chain").Inc()
			d := make(meta.Diff)
			seen := make(map[string]bool, len(changes))
			var paths []string
			for _, ch := range changes {
				if ch.Type == meta.ChangeRelocate || seen[ch.Path] {
					continue
				}
				seen[ch.Path] = true
				paths = append(paths, ch.Path)
				b := before.Lookup(ch.Path).Current()
				a := after.Lookup(ch.Path).Current()
				if b.ContentEquals(a) {
					continue
				}
				d[ch.Path] = meta.DiffEntry{Path: ch.Path, Before: b, After: a}
			}
			return d, paths
		}
	}
	c.cfg.Obs.Counter("sync.diff.full").Inc()
	return meta.DiffImages(before, after), nil
}

// commitLocal commits pending local changes under the quorum lock.
// The pass's upload is one continuous batch (startUpload); the
// metadata commit happens at its availability instant — the files are
// available to other devices from here, AvailableDuration marks this
// moment — and the final placements are recorded once the batch has
// finished. What the commit waits for depends on what the batch still
// owes when it becomes available:
//
//   - nothing queued, the rest of every fair share is in flight (a
//     single small file): the pass waits those few blocks out and
//     commits once, naming the full placement;
//   - fair-share blocks still queued behind busy connections (more
//     segments than a cloud has connections): a second locked round to
//     record them is owed either way, so the first commit names the
//     blocks landed so far, thin, and runs WHILE the reliability tail
//     keeps uploading; the relocate commit follows the join.
//
// Overlapping therefore never adds a lock round, and only landed
// blocks are ever named (blocks before metadata, DESIGN.md §8).
func (c *Client) commitLocal(ctx context.Context, report *SyncReport) error {
	start := c.cfg.Clock.Now()
	changes := c.changes.Drain()
	ok := false
	defer func() {
		if !ok {
			c.changes.Requeue(changes)
		}
	}()

	// Write-ahead intent: before any block leaves this device, the
	// journal records what this pass is about to upload, so a crash at
	// ANY later point leaves a replayable record instead of silently
	// leaked blocks. A retried batch (same changes after a failed
	// pass) re-begins the same intent ID.
	intentID := journal.BatchID(changes)
	if err := c.journal.Begin(&journal.Intent{
		ID:        intentID,
		Kind:      journal.KindUpload,
		Device:    c.cfg.Device,
		CreatedAt: c.cfg.Clock.Now(),
		Changes:   changes,
	}); err != nil {
		return err
	}

	session, err := c.startUpload(ctx, changes)
	if err != nil {
		return err
	}
	// Whatever ends the pass — commit error, lost lock, injected crash,
	// cancelled ctx — the batch is cancelled and drained before the
	// coding buffers it reads go back to the pool.
	defer session.close()
	if err := session.awaitAvailable(); err != nil {
		return err
	}
	report.Upload = session.outcome
	overlap := session.backlog()
	if overlap {
		c.cfg.Obs.Counter("core.commit.overlapped").Inc()
	} else {
		c.cfg.Obs.Counter("core.commit.drained").Inc()
		if err := session.join(); err != nil {
			return err
		}
	}

	// Record the landed placements. Best effort: recovery re-verifies
	// against a live survey, so a lost update costs nothing; but an
	// intact record lets operators see exactly what a crashed pass had
	// achieved.
	_ = c.journal.UpdatePlacementsBatch(intentID, session.stamp(changes))

	commitStart := c.cfg.Clock.Now()
	commitDone, err := c.commitUnderLock(ctx, &changes, report, session)
	if err != nil {
		return err
	}
	if c.crashNow(CrashPostCommit) {
		// The commit landed but the journal still says "uploading" —
		// recovery must detect committedness from the image itself.
		return ErrCrashInjected
	}
	if err := c.journal.MarkCommitted(intentID, report.Version); err != nil {
		return err
	}
	report.LocalChanges = len(changes)
	// The paper's "available time": transfers until the batch had K
	// blocks per segment, plus the metadata commit. Excluded: whatever
	// the pass waited for between the two, and the lock release after
	// the commit — the data is visible to other devices the moment the
	// commit lands.
	report.AvailableDuration = session.availAt.Sub(start) + commitDone.Sub(commitStart)
	ok = true

	committed := c.cfg.Clock.Now()
	if err := session.join(); err != nil {
		return err
	}
	if overlap {
		tail := session.endAt.Sub(committed)
		if tail < 0 {
			tail = 0 // the batch finished under the commit
		}
		c.cfg.Obs.Histogram("core.commit.tail_ms").Observe(float64(tail) / float64(time.Millisecond))
	}
	// Reliability-second: the fair shares (and extras) that landed after
	// the stamp go into a follow-up commit.
	relocates, over := session.settle()
	report.Upload.OverProvisioned = over
	if len(relocates) > 0 {
		if _, err := c.commitUnderLock(ctx, &relocates, report, nil); err != nil {
			return err
		}
	}
	// The pass is fully recorded in committed metadata (including the
	// final placements): the intent has served its purpose.
	return c.journal.Clear(intentID)
}

// releaseLock releases a quorum lock with a hard deadline so a
// stalled cloud cannot hang shutdown: the release proceeds in the
// background for at most ReleaseTimeout (detached from the caller's
// cancellation — a cancelled sync must still try to unlock), after
// which it is abandoned and counted under qlock.release_timeouts.
// An abandoned release is safe: the flag files expire after
// LockExpiry and every other device breaks them.
func (c *Client) releaseLock(ctx context.Context, lock *qlock.Lock) {
	rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.cfg.ReleaseTimeout)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer cancel()
		_ = lock.Release(rctx)
	}()
	select {
	case <-done:
	case <-rctx.Done():
		c.cfg.Obs.Counter("qlock.release_timeouts").Inc()
	}
}

// commitUnderLock acquires the quorum lock, reconciles against any
// pending cloud update, and commits the changes. upload is the pass's
// upload session when the changes are local file changes, which need
// reconciling, and nil for a relocate commit, which does not. The
// changes slice is replaced with the reconciled set. It returns the
// instant the commit itself completed (before the lock release).
func (c *Client) commitUnderLock(ctx context.Context, changes *[]*meta.Change, report *SyncReport, upload *uploadSession) (time.Time, error) {
	lock, err := c.locks.Acquire(ctx)
	if err != nil {
		return time.Time{}, err
	}
	defer c.releaseLock(ctx, lock)
	if c.crashNow(CrashPreCommit) {
		return time.Time{}, ErrCrashInjected
	}

	// Refresh polls the cheap version stamps and catches up (delta-only
	// when possible) only if a newer commit is pending.
	if _, err := c.store.Refresh(ctx); err != nil {
		return time.Time{}, err
	}
	// Reconcile whenever the cached image is ahead of what this device
	// has applied locally — not just when the refresh found it first.
	// Recovery pre-fetches the image at startup, so a cloud update can
	// already sit in the cache with nothing "pending" remotely.
	if upload != nil && c.store.Stamp().Version > c.lastImage().Version {
		*changes, err = c.reconcile(ctx, *changes, report, upload)
		if err != nil {
			return time.Time{}, err
		}
	}
	if !lock.Valid() {
		return time.Time{}, fmt.Errorf("core: quorum lock lost before commit")
	}
	if len(*changes) > 0 {
		stats, err := c.store.Commit(ctx, *changes)
		if err != nil {
			return time.Time{}, err
		}
		report.Version = stats.Version
	}
	return c.cfg.Clock.Now(), nil
}

// reconcile adjusts the pending change list against a freshly fetched
// cloud image (paper §5.2, conflicting local and cloud updates):
//
//   - a path updated only locally keeps its change;
//   - a coincidental update with identical content drops the local
//     change (the cloud already has it);
//   - a true conflict retains both versions: the local version is
//     renamed to a conflict-copy path (a new Add change plus a local
//     file copy) and the cloud's version wins the original path;
//   - a local edit of a file the cloud deleted keeps the local edit;
//     a local delete of a file the cloud edited drops the delete.
//
// It also re-verifies that every segment referenced by the surviving
// changes still exists (another device may have garbage-collected a
// deduplicated segment we relied on) and re-uploads any that do not.
func (c *Client) reconcile(ctx context.Context, changes []*meta.Change, report *SyncReport, upload *uploadSession) ([]*meta.Change, error) {
	vo := c.lastImage()
	vc := c.store.CachedShared() // read-only: diffed and consulted, never mutated
	deltaC, _ := c.diffForApply(vo, vc)

	var out []*meta.Change
	for _, ch := range changes {
		if ch.Type == meta.ChangeRelocate {
			out = append(out, ch)
			continue
		}
		dc, contested := deltaC[ch.Path]
		if !contested {
			out = append(out, ch)
			continue
		}
		cloudSnap := dc.After
		switch ch.Type {
		case meta.ChangeAdd, meta.ChangeEdit:
			if cloudSnap == nil || cloudSnap.Deleted {
				// Cloud deleted, we edited: our edit survives.
				out = append(out, ch)
				continue
			}
			if cloudSnap.ContentEquals(ch.Snapshot) {
				continue // identical coincidental update
			}
			// True conflict: keep the cloud's version at the path,
			// retain ours as a conflict copy.
			copyPath := localfs.ConflictCopyPath(ch.Path, c.cfg.Device)
			snap := ch.Snapshot.Clone()
			snap.Path = copyPath
			out = append(out, &meta.Change{
				Type: meta.ChangeAdd, Path: copyPath,
				Snapshot: snap, Segments: ch.Segments, Time: ch.Time,
			})
			if data, err := c.folder.ReadFile(ch.Path); err == nil {
				if err := c.folder.WriteFile(copyPath, data, snap.ModTime); err != nil {
					return nil, err
				}
				c.suppress(copyPath, int64(len(data)), snap.ModTime, false)
			}
			c.noteConflict(copyPath)
			report.Conflicts = append(report.Conflicts, copyPath)
		case meta.ChangeDelete:
			if cloudSnap != nil && !cloudSnap.Deleted {
				// Cloud edited what we deleted: the edit survives,
				// our delete is dropped.
				continue
			}
			// Both deleted: nothing to commit.
		}
	}
	out, err := c.reuploadMissingSegments(ctx, out, vc, upload)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// reuploadMissingSegments verifies dedup assumptions against the
// fetched image: any referenced segment that is neither freshly
// uploaded (has block placements in the change) nor present in the
// cloud pool is re-uploaded from the local cache, after the pass's own
// upload has been joined — a tenant has one open batch at the shared
// FairScheduler, whose EndBatch would otherwise clear the other's
// waiting marks.
func (c *Client) reuploadMissingSegments(ctx context.Context, changes []*meta.Change, vc *meta.Image, upload *uploadSession) ([]*meta.Change, error) {
	for _, ch := range changes {
		for _, seg := range ch.Segments {
			if len(seg.Blocks) > 0 {
				continue // we just uploaded it
			}
			if pool, ok := vc.Segment(seg.ID); ok && len(pool.Blocks) >= seg.K {
				seg.Blocks = append([]meta.BlockLocation(nil), pool.Blocks...)
				continue
			}
			// Dedup assumption broken: re-upload.
			if err := upload.join(); err != nil {
				return nil, err
			}
			if err := c.reuploadSegment(ctx, seg); err != nil {
				return nil, err
			}
		}
	}
	return changes, nil
}

// reuploadSegment uploads one segment from the local cache, to
// reliability, and stamps the placement into its record.
func (c *Client) reuploadSegment(ctx context.Context, seg *meta.Segment) error {
	src, err := c.blockSource(seg)
	if err != nil {
		return err
	}
	defer src.release()
	plan, err := sched.NewUploadPlan(c.params, c.names)
	if err != nil {
		return err
	}
	if err := c.engine.UploadSegment(ctx, plan, seg.ID, src.blocks, plan.Available); err != nil {
		return err
	}
	if !plan.Available() {
		return fmt.Errorf("core: segment %s could not reach availability (%d/%d blocks)",
			seg.ID, len(plan.UploadedBlocks()), c.params.K)
	}
	// Stamp checksums before the deferred release: sum() reads the
	// still-pooled encoded buffers.
	for blockID, cloudName := range plan.Placement() {
		seg.AddBlockSum(blockID, cloudName, src.sum(blockID))
	}
	return nil
}

// applyCloudUpdate materializes the difference between two metadata
// versions in the local folder: files changed remotely are downloaded
// (any K blocks per segment, fastest clouds first), deletions are
// applied, and our own just-committed paths are skipped (they are
// already on disk).
//
// All files' segments download through ONE batched dispatcher —
// earliest file first, later files' blocks filling otherwise-idle
// connections — and each file is assembled and written the moment its
// last segment lands (the paper's availability-first pipeline, on the
// receive side). The diff is precomputed by the caller (diffForApply)
// so chain-covered passes never walk the whole image. scanned lists
// the local changes this pass committed, as the scan recorded them.
func (c *Client) applyCloudUpdate(ctx context.Context, from, to *meta.Image, diff meta.Diff, scanned []*meta.Change) (int, error) {
	applied := 0
	// lastKnown is the content this device last saw at a path: what this
	// pass's scan read there, else what the image it had applied says.
	ownScan := make(map[string]*meta.Snapshot, len(scanned))
	for _, ch := range scanned {
		if ch.Type != meta.ChangeRelocate {
			ownScan[ch.Path] = ch.Snapshot
		}
	}
	lastKnown := func(path string) *meta.Snapshot {
		if snap, ok := ownScan[path]; ok {
			return snap
		}
		return from.Lookup(path).Current()
	}

	// Journal the apply before the first folder mutation: a crash
	// mid-apply leaves a half-written folder, and without a record the
	// next scan would re-detect the downloaded halves as local edits.
	var touched []string
	for _, path := range diff.Paths() {
		if diff[path].After != nil {
			touched = append(touched, path)
		}
	}
	intentID := ""
	if len(touched) > 0 {
		intentID = "apply:" + fmt.Sprintf("%d-%d", from.Version, to.Version)
		if err := c.journal.Begin(&journal.Intent{
			ID:        intentID,
			Kind:      journal.KindApply,
			Device:    c.cfg.Device,
			CreatedAt: c.cfg.Clock.Now(),
			Paths:     touched,
		}); err != nil {
			return 0, err
		}
	}

	crashAfter, crashArmed := c.crashThreshold(CrashMidApply)
	crashed := false

	// pendingFile tracks a file whose segments are downloading.
	type pendingFile struct {
		snap *meta.Snapshot
		// parts[i] is segment i's content; cached segments are filled
		// immediately, downloaded ones by their Done callback.
		parts   [][]byte
		missing int
	}
	var files []*pendingFile
	var items []transfer.DownloadItem
	// itemFiles/itemSegs map each download item back to its file and
	// segment so plan failures can be classified after the batch.
	var itemFiles []*pendingFile
	var itemSegs []*meta.Segment
	// writeErrs and applied are mutated both inline and from download
	// Done callbacks; that is race-free because DownloadBatch runs
	// every Done on this goroutine (the serialization contract on
	// transfer.DownloadItem.Done).
	writeErrs := make(map[string]error)
	// corruptRetries collects segments whose decoded bytes failed the
	// content SHA-1 inside a Done callback. The replacement fetch runs
	// AFTER the batch returns: a nested DownloadBatch inside Done
	// could deadlock on the shared fair scheduler (the outer batch's
	// slots release on this very goroutine).
	type corruptRetry struct {
		f        *pendingFile
		part     int
		seg      *meta.Segment
		excluded map[int]bool
	}
	var corruptRetries []corruptRetry

	finish := func(f *pendingFile) {
		if crashed {
			return // the injected crash already "killed" this pass
		}
		data := make([]byte, 0, f.snap.Size)
		for _, p := range f.parts {
			data = append(data, p...)
		}
		if err := c.folder.WriteFile(f.snap.Path, data, f.snap.ModTime); err != nil {
			writeErrs[f.snap.Path] = err
			return
		}
		c.suppress(f.snap.Path, int64(len(data)), f.snap.ModTime, false)
		applied++
		if crashArmed && applied >= crashAfter {
			crashed = true
		}
	}

	for _, path := range diff.Paths() {
		after := diff[path].After
		if after == nil {
			continue
		}
		if after.Deleted {
			if crashed {
				continue
			}
			if _, err := c.folder.Stat(path); err == nil {
				if err := c.folder.Remove(path); err != nil {
					return applied, err
				}
				c.suppress(path, 0, time.Time{}, true)
				applied++
				if crashArmed && applied >= crashAfter {
					crashed = true
				}
			}
			continue
		}
		// Skip content already on disk (e.g. our own commits or a
		// previous partial application).
		if fi, err := c.folder.Stat(path); err == nil {
			if known := lastKnown(path); c.unchangedSince(fi, known) {
				// The device knows what these bytes hash to without
				// reading them again.
				if known.ContentEquals(after) {
					continue
				}
			} else if fi.Size == after.Size {
				// An edit no scan has seen, or a half-apply recovery
				// restored: only the bytes can tell.
				if data, err := c.folder.ReadFile(path); err == nil {
					if snap, _ := c.chunkFile(localfs.FileInfo{Path: path, ModTime: fi.ModTime}, data); snap.ContentEquals(after) {
						continue
					}
				}
			}
		}
		f := &pendingFile{snap: after, parts: make([][]byte, len(after.SegmentIDs))}
		for i, id := range after.SegmentIDs {
			seg, ok := to.Segment(id)
			if !ok {
				return applied, fmt.Errorf("core: file %s references unknown segment %s", path, id)
			}
			if data, cached := c.cachedSegment(id); cached {
				f.parts[i] = data
				continue
			}
			item, err := downloadItem(seg, nil)
			if err != nil {
				return applied, err
			}
			f.missing++
			itemFiles = append(itemFiles, f)
			itemSegs = append(itemSegs, seg)
			item.Done = func(blocks map[int][]byte) {
				data, excluded, err := c.decodeAndVerify(seg, blocks)
				if err != nil {
					if errors.Is(err, errDecodeMismatch) {
						// Defer the replacement fetch to after the batch.
						corruptRetries = append(corruptRetries, corruptRetry{
							f: f, part: i, seg: seg, excluded: excluded,
						})
						return
					}
					writeErrs[f.snap.Path] = err
					return
				}
				f.parts[i] = data
				f.missing--
				if f.missing == 0 {
					finish(f)
				}
			}
			items = append(items, item)
		}
		if f.missing == 0 {
			// Everything served from the local segment cache.
			finish(f)
			continue
		}
		files = append(files, f)
	}

	if len(items) > 0 {
		if _, err := c.engine.DownloadBatch(ctx, items); err != nil {
			return applied, err
		}
	}
	// Classify plans the batch could not complete: when corrupt copies
	// (detected by their stamped checksums) exhausted a segment's
	// holders, the file fails loudly as data corruption, not as a
	// generic availability problem.
	for i := range items {
		if items[i].Plan.Done() {
			continue
		}
		f := itemFiles[i]
		if writeErrs[f.snap.Path] != nil {
			continue
		}
		if n := items[i].Plan.CorruptCount(); n > 0 {
			writeErrs[f.snap.Path] = fmt.Errorf("core: segment %s: %w after %d corrupt block fetches: %w",
				itemSegs[i].ID, transfer.ErrSegmentUnrecoverable, n, cloud.ErrCorrupt)
		}
	}
	// Replacement fetches for segments whose first decode failed
	// content verification, excluding the poisoned copies. A segment
	// that cannot be reconstructed cleanly fails its file loudly with
	// cloud.ErrCorrupt (via reconstructVerified's fetch path) — the
	// half-applied journal intent keeps the pass resumable.
	for _, cr := range corruptRetries {
		if writeErrs[cr.f.snap.Path] != nil {
			continue
		}
		blocks, err := c.fetchBlocksExcluding(ctx, cr.seg, cr.excluded)
		if err != nil {
			writeErrs[cr.f.snap.Path] = fmt.Errorf("core: segment %s: content verification failed and no clean replacement blocks: %w (%v)",
				cr.seg.ID, cloud.ErrCorrupt, err)
			continue
		}
		data, _, err := c.decodeAndVerify(cr.seg, blocks)
		if err != nil {
			writeErrs[cr.f.snap.Path] = fmt.Errorf("core: segment %s: content verification failed after excluding %d suspect blocks: %w",
				cr.seg.ID, len(cr.excluded), cloud.ErrCorrupt)
			continue
		}
		c.cfg.Obs.Counter("core.decode.exclusion_retries").Inc()
		cr.f.parts[cr.part] = data
		cr.f.missing--
		if cr.f.missing == 0 {
			finish(cr.f)
		}
	}
	for _, f := range files {
		if err := writeErrs[f.snap.Path]; err != nil {
			return applied, err
		}
		if f.missing > 0 {
			return applied, fmt.Errorf("core: file %s: %w", f.snap.Path, transfer.ErrSegmentUnrecoverable)
		}
	}
	// Report write failures in diff order, not map order, so a pass
	// that trips several returns the same error every time.
	for _, path := range diff.Paths() {
		if err, ok := writeErrs[path]; ok {
			return applied, fmt.Errorf("core: applying %s: %w", path, err)
		}
	}
	if crashed {
		return applied, ErrCrashInjected
	}
	if intentID != "" {
		// Every path landed; the half-applied window is closed.
		if err := c.journal.Clear(intentID); err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// unchangedSince reports that the file fi describes still holds the
// content of snap, the snapshot this device last knew at the path: its
// size and mtime are the ones the scanner baseline holds — no edit has
// gone unscanned — and the ones snap was taken (or written) with.
func (c *Client) unchangedSince(fi localfs.FileInfo, snap *meta.Snapshot) bool {
	if snap == nil || snap.Deleted || fi.Size != snap.Size || !fi.ModTime.Equal(snap.ModTime) {
		return false
	}
	base, _ := c.scanner.BaselineFor([]string{fi.Path})
	return len(base) == 1 && base[0].Size == fi.Size && base[0].ModTime.Equal(fi.ModTime)
}

// gcSegments deletes the coded blocks of segments that disappeared
// from the pool between two committed images (their refcount reached
// zero), and drops the local content cache for segments now safely
// committed.
//
// paths narrows the work to the files that actually changed between
// the images (from diffForApply's chain walk): only their entries can
// have shed or gained segment references, so only their segments are
// inspected — O(changes). nil paths means the span was not chain-
// covered and both whole pools are compared, the O(folder) fallback.
func (c *Client) gcSegments(ctx context.Context, from, to *meta.Image, paths []string) {
	var committed []string
	dead := make(map[string]*meta.Segment)
	if paths == nil {
		for id := range to.AllSegments() {
			committed = append(committed, id)
		}
		for id, seg := range from.AllSegments() {
			if _, alive := to.Segment(id); !alive {
				dead[id] = seg
			}
		}
	} else {
		seen := make(map[string]bool)
		for _, p := range paths {
			if e := to.Lookup(p); e != nil {
				for _, snap := range e.Snapshots {
					for _, id := range snap.SegmentIDs {
						if !seen[id] {
							seen[id] = true
							committed = append(committed, id)
						}
					}
				}
			}
			// Every snapshot of the old entry, not just the current one:
			// a conflict-retaining entry holds references beyond Current().
			if e := from.Lookup(p); e != nil {
				for _, snap := range e.Snapshots {
					for _, id := range snap.SegmentIDs {
						if _, alive := to.Segment(id); alive {
							continue
						}
						if seg, ok := from.Segment(id); ok {
							dead[id] = seg
						}
					}
				}
			}
		}
	}
	c.dropSegmentCache(committed)
	// One batch for the whole pass: the deletes of every dead segment
	// overlap, per cloud, instead of costing one API latency each.
	var doomed []transfer.BlockRef
	for id, seg := range dead {
		for _, b := range seg.Blocks {
			doomed = append(doomed, transfer.BlockRef{SegID: id, BlockID: b.BlockID, Cloud: b.CloudID})
		}
	}
	c.engine.DeleteBlocks(ctx, doomed)
}
