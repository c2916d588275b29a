package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/qlock"
	"unidrive/internal/sched"
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

// A pass is the paper's Algorithm 1 (SyncMetadata) as named stages,
// each with one job (DESIGN.md §9):
//
//	observe  folder → ChangedFileList (full scan | dirty paths | nothing)
//	commit   ChangedFileList → committed metadata (commitLocal: upload,
//	         quorum lock, reconcile, commit), or a stamp poll when there
//	         is nothing to commit
//	plan     (diff, folder stat, last-known snapshot) → []applyAction
//	fetch    the plan's files, through fetchVerified
//	write    verified content and removals → folder
//	advance  v_o := the store's head; GC; checkpoint
//
// The first two are this file; the rest is apply.go and fetch.go.

// scan is a pass's observer: it names the folder events the pass looks
// at and how many files it statted to find them. localfs.Scanner's
// ScanAll is one, ScanDirty bound to a path set another, nil looks at
// nothing.
type scan func() (events []localfs.Event, statted int, err error)

// ScanLocal polls the sync folder once and records detected changes
// in the ChangedFileList. It is called by SyncOnce but is exported so
// tests and tools can drive detection explicitly.
func (c *Client) ScanLocal() error {
	return c.observe(c.scanner.ScanAll)
}

// observe is a pass's first stage: it records the real changes among
// the scan's events in the ChangedFileList and the scan's control-plane
// cost in the obs histograms the sync-pass benchmark and operators
// read.
func (c *Client) observe(look scan) error {
	start := c.cfg.Clock.Now()
	events, statted, err := look()
	if err != nil {
		return fmt.Errorf("core: scanning folder: %w", err)
	}
	recorded, err := c.recordEvents(events)
	if err != nil {
		return err
	}
	c.cfg.Obs.Histogram("sync.pass.scan_ms").Observe(float64(c.cfg.Clock.Now().Sub(start)) / float64(time.Millisecond))
	c.cfg.Obs.Histogram("sync.pass.files_statted").Observe(float64(statted))
	c.cfg.Obs.Histogram("sync.pass.changes").Observe(float64(recorded))
	return nil
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

// SyncOnce runs one full pass: every file in the folder is observed,
// pending local updates are committed (blocks freely, before metadata;
// then under the quorum lock: fetch and reconcile against a pending
// cloud update — conflict copies for coincidental updates — and commit),
// and whatever is newly committed, here or elsewhere, is applied to the
// folder by downloading any K blocks per segment.
func (c *Client) SyncOnce(ctx context.Context) (SyncReport, error) {
	return c.pass(ctx, c.scanner.ScanAll, true)
}

// SyncDirty is the event-driven counterpart of SyncOnce: it observes
// only the given dirty paths and commits whatever real changes they
// contain. It does not poll the clouds when there is nothing to commit
// — remote updates are SyncRemote's job — so an over-reporting watcher
// costs a few stats, not a network round-trip. Pass cost is
// O(len(paths) + changes), independent of folder size.
func (c *Client) SyncDirty(ctx context.Context, paths []string) (SyncReport, error) {
	return c.pass(ctx, func() ([]localfs.Event, int, error) { return c.scanner.ScanDirty(paths) }, false)
}

// SyncRemote runs the remote half of a pass: poll the version stamps,
// refresh the cached metadata if a commit is pending, and apply it to
// the local folder. Nothing is observed; pending local changes from an
// earlier failed pass are still committed first, since committing
// under the lock subsumes the refresh.
func (c *Client) SyncRemote(ctx context.Context) (SyncReport, error) {
	return c.pass(ctx, nil, true)
}

// pass runs the stages in order. poll says whether a pass that finds
// nothing to commit still asks the clouds for news. When nothing was
// committed anywhere the pass ends before an image is materialized or
// diffed — the property that makes event-driven passes O(changes).
func (c *Client) pass(ctx context.Context, observer scan, poll bool) (SyncReport, error) {
	var report SyncReport
	if observer != nil {
		if err := c.observe(observer); err != nil {
			return report, err
		}
	}
	// scanned is what this pass's commit read from disk, as observed
	// (before reconciliation moves a conflicting edit aside).
	scanned := c.changes.Snapshot()
	if len(scanned) > 0 {
		if err := c.commitLocal(ctx, &report); err != nil {
			return report, err
		}
	} else if poll {
		if _, err := c.store.Refresh(ctx); err != nil {
			return report, err
		}
	}
	err := c.apply(ctx, scanned, &report)
	return report, err
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
