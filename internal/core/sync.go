package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unidrive/internal/chunker"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/sched"
)

// SyncReport summarizes one pass: SyncOnce, SyncDirty or SyncRemote.
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
	// "available time" metric (§7.1). The pass itself runs a little
	// longer, to its commit's journal record and the apply stage. Its
	// upload runs on to reliability in its lock hold (hold.go), and the
	// final placements are recorded by the device's next lock hold. Zero
	// when no local changes were committed.
	AvailableDuration time.Duration
	// PlacementsRecorded is the number of segments whose final placement
	// — blocks an earlier pass's upload landed after its commit was
	// stamped — this pass's lock hold recorded. LocalChanges does not
	// count them: they change no file.
	PlacementsRecorded int
}

// A pass is the paper's Algorithm 1 (SyncMetadata) as named stages,
// each with one job (DESIGN.md §9):
//
//	observe  folder → ChangedFileList (full scan | dirty paths | nothing)
//	commit   upload, then under the quorum lock: refresh, plan, commit
//	         (commitLocal); when there is nothing to commit, a stamp
//	         poll, or the lock hold that records owed placements. The
//	         release, the upload's reliability second and the released
//	         blocks' deletes run on in the hold (hold.go)
//	plan     (local changes, span v_o→v_c, folder) → []applyAction
//	         (plan.go): its local side under the lock when the pass
//	         commits, the whole plan on the live folder after release
//	fetch    conflict copies, then removals, then the plan's files
//	         through fetchVerified
//	write    verified content → folder
//	advance  v_o := the pass's head; checkpoint (no block DELETEs: the
//	         committing hold deletes what its commit released)
//
// One writer: a pass holds Client.writer throughout, as does every
// other operation that commits, moves v_o or writes the folder.
//
// The first two are this file; the rest is plan.go, apply.go and
// fetch.go.

// scan is a pass's observer: it names the folder events the pass looks
// at and how many files it statted to find them. localfs.Scanner's
// ScanAll is one, ScanDirty bound to a path set another, nil looks at
// nothing.
type scan func() (events []localfs.Event, statted int, err error)

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

// recordEvents converts scanner events into ChangedFileList entries,
// in three steps: every added or modified file is read and split
// (readEvents), all their segments are named in one chunker.IDs call,
// which hashes on every core, and each event is recorded in order.
// Modified events are guarded against spurious mtime changes
// (touch(1), editors rewriting identical bytes): the re-chunked content
// is compared against the committed snapshot before anything is
// cached, and an identical file records nothing — re-uploading it
// would waste a commit and a metadata version. Skips are counted under
// scan.spurious_mtime. The scanner's baseline moves past the events
// handled, recorded or skipped, and no further: an event left out —
// its file unreadable, or its Record failed — is reported again by the
// next scan.
func (c *Client) recordEvents(events []localfs.Event) (int, error) {
	files := c.readEvents(events)
	var segs []chunker.Segment
	for _, f := range files {
		segs = append(segs, f.segs...)
	}
	ids := chunker.IDs(segs)
	recorded := 0
	for i, f := range files {
		fileIDs := ids[:len(f.segs):len(f.segs)]
		ids = ids[len(f.segs):]
		var ch *meta.Change
		switch f.ev.Kind {
		case localfs.Added, localfs.Modified:
			if f.segs == nil {
				continue // deleted between scan and read
			}
			snap := &meta.Snapshot{
				Path: f.ev.Info.Path, Size: int64(len(f.data)), ModTime: f.ev.Info.ModTime,
				Device: c.cfg.Device, SegmentIDs: fileIDs,
			}
			typ := meta.ChangeAdd
			if f.ev.Kind == localfs.Modified {
				typ = meta.ChangeEdit
				if known := c.lastImage().Lookup(f.ev.Info.Path).Current(); snap.ContentEquals(known) {
					c.cfg.Obs.Counter("scan.spurious_mtime").Inc()
					continue
				}
			}
			ch = &meta.Change{
				Type: typ, Path: f.ev.Info.Path, Snapshot: snap,
				Segments: c.stageSegments(f.segs, fileIDs), Time: f.ev.Info.ModTime,
			}
		case localfs.Removed:
			// Stamp the scan-observed time: the tombstone committed for
			// this delete carries it, and a zero time would make a
			// deleted-then-recreated path look infinitely old to any
			// reader ordering versions by timestamp.
			ch = &meta.Change{Type: meta.ChangeDelete, Path: f.ev.Info.Path, Time: c.cfg.Clock.Now()}
		default:
			continue
		}
		if err := c.changes.Record(ch); err != nil {
			c.accept(files[:i])
			return recorded, err
		}
		recorded++
	}
	c.accept(files)
	return recorded, nil
}

// eventFile is one scanner event with, for an added or modified file,
// the bytes read and their segments; segs is nil when the file was
// deleted between scan and read (Split names even an empty file).
type eventFile struct {
	ev   localfs.Event
	data []byte
	segs []chunker.Segment
}

// readEvents is recordEvents' first step: it reads and splits every
// added or modified file, in event order. A file that cannot be read
// for any reason other than having gone is left out and counted under
// scan.read_errors: one unreadable file holds up neither the other
// changes nor the pass, and its unaccepted event comes back with the
// next full scan.
func (c *Client) readEvents(events []localfs.Event) []eventFile {
	files := make([]eventFile, 0, len(events))
	for _, ev := range events {
		f := eventFile{ev: ev}
		if ev.Kind == localfs.Added || ev.Kind == localfs.Modified {
			data, err := c.folder.ReadFile(ev.Info.Path)
			switch {
			case errors.Is(err, localfs.ErrNotExist):
			case err != nil:
				c.cfg.Obs.Counter("scan.read_errors").Inc()
				continue
			default:
				f.data, f.segs = data, c.chnk.Split(data)
			}
		}
		files = append(files, f)
	}
	return files
}

// SyncOnce runs one full pass: every file in the folder is observed,
// pending local updates are committed (blocks freely, before metadata;
// then under the quorum lock: fetch and plan against a pending cloud
// update — conflict copies for coincidental updates — and commit),
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
// under the lock subsumes the refresh, and so are the final placements
// an earlier pass owes (placements.go), under a lock hold of their
// own when nothing else is to be committed.
func (c *Client) SyncRemote(ctx context.Context) (SyncReport, error) {
	return c.pass(ctx, nil, true)
}

// pass runs the stages in order. poll says whether a pass that finds
// nothing to commit still asks the clouds for news; such a pass also
// records the placements owed, in one lock hold whose refresh is the
// poll. When nothing was committed anywhere the pass ends before an
// image is materialized or diffed — the property that makes
// event-driven passes O(changes).
func (c *Client) pass(ctx context.Context, observer scan, poll bool) (SyncReport, error) {
	c.writer.Lock()
	defer c.writer.Unlock()
	var report SyncReport
	if observer != nil {
		if err := c.observe(observer); err != nil {
			return report, err
		}
	}
	var local []*meta.Change
	var head *meta.Image
	var err error
	c.last.handOver()
	switch {
	case c.changes.Len() > 0:
		local, head, err = c.commitLocal(ctx, &report)
	case poll && len(c.owed.intents) > 0:
		report.PlacementsRecorded, err = c.lockedCommit(ctx, c.stack, func(*meta.Image) ([]*meta.Change, error) {
			return nil, nil
		})
	case poll:
		_, err = c.store.Refresh(ctx)
	}
	if err != nil {
		return report, err
	}
	if head == nil {
		head = c.store.CachedShared()
	}
	return report, c.apply(ctx, local, head, &report)
}

// commitLocal commits pending local changes under the quorum lock, as
// the local side of the pass's plan decides, and returns them with the
// head their commit made. The pass's upload is one continuous batch
// (startUpload); the metadata commit happens at its availability
// instant — the files are available to other devices from here,
// AvailableDuration marks this moment — and the pass ends at its
// commit, handing the batch to its hold (hold.upload). The commit names
// the blocks landed when it is built, thin where they are short of the
// target, and the batch runs on to reliability in the hold, after the
// pass. What lands after the commit is owed to the device's next lock
// hold (placements.go), and the intent stays committed until then.
//
// Every pass therefore takes at most one lock hold — the one that also
// records what an earlier pass owes — and only landed blocks are ever
// named (blocks before metadata, DESIGN.md §8).
//
// The hold's acquire and refresh (startHold) start with the batch when
// the batch is small (one dispatch, at most θ of content: the
// single-file commit's shape), so they run beside the upload and the
// lock hold grows by at most that dispatch. Otherwise they start once
// the pass is ready to commit: available, placements stamped and
// journaled.
func (c *Client) commitLocal(ctx context.Context, report *SyncReport) ([]*meta.Change, *meta.Image, error) {
	start := c.cfg.Clock.Now()
	changes := c.changes.Drain()
	ok := false
	defer func() {
		if !ok {
			c.changes.Requeue(changes)
		}
	}()

	intentID, err := c.beginUpload(changes)
	if err != nil {
		return nil, nil, err
	}
	if c.last.deletes(changes) {
		c.cfg.Obs.Counter("core.tail.reupload_joins").Inc()
		c.last.Wait()
	}
	session, err := c.startUpload(ctx, changes)
	if err != nil {
		return nil, nil, err
	}
	// Whatever ends the pass short of its commit — commit error, lost
	// lock, injected crash, cancelled ctx — the batch is cancelled and
	// drained before the coding buffers it reads go back to the pool, and
	// a lock won is released (hold.close); a commit hands both to the hold.
	defer func() {
		if !ok {
			session.close()
		}
	}()
	var h *hold
	early := session.small()
	if early {
		h = c.startHold(ctx)
		defer h.close()
	}
	if err := session.awaitAvailable(); err != nil {
		return nil, nil, err
	}
	report.Upload = session.outcome

	// Record the landed placements. Best effort: recovery re-verifies
	// against a live survey, so a lost update costs nothing; but an
	// intact record lets operators see exactly what a crashed pass had
	// achieved.
	_ = c.journal.UpdatePlacementsBatch(intentID, session.stamp(changes))
	readyAt := c.cfg.Clock.Now()
	if !early {
		h = c.startHold(ctx)
		defer h.close()
	}

	var commit []*meta.Change
	commitDone, err := h.commit(c.stack, func(head *meta.Image) ([]*meta.Change, error) {
		// Stamp again under the lock: the commit names every block landed
		// by now, and other devices read this record until the next hold.
		session.stamp(changes)
		// The plan's local side, all the commit needs: no folder call
		// under the lock.
		sp := c.spanTo(head)
		for _, a := range c.plan(changes, sp, nil) {
			if a.commit != nil {
				commit = append(commit, a.commit)
			}
		}
		return commit, c.reuploadMissingSegments(ctx, commit, sp.after, session)
	})
	if err != nil {
		return nil, nil, err
	}
	head := c.store.CachedShared()
	released, err := c.markCommitted(intentID, h.head, head, commit)
	if err != nil {
		return nil, nil, err
	}
	report.LocalChanges = len(commit)
	report.PlacementsRecorded = h.recorded
	// The paper's "available time": pass start until the commit landed —
	// not the release after it, the data is visible to other devices from
	// here — less the time the commit waited on the pass alone.
	report.AvailableDuration = commitDone.Sub(start) - h.waitedAlone(session.availAt, readyAt)
	ok = true
	h.upload(session, intentID, releasedBlocks(released))
	return changes, head, nil
}

// markCommitted journals the pass's intent as committed at head, with
// the segments the commit released — on from, the head it built on,
// against head, the one it made — and returns those: the hold deletes
// their blocks, and Recover does when the hold did not. Owed
// blocks of a released segment are the hold's to delete (outlived).
func (c *Client) markCommitted(intentID string, from, head *meta.Image, commit []*meta.Change) ([]*meta.Segment, error) {
	released := releasedSegments(from, head, commit)
	ids := make([]string, len(released))
	for i, seg := range released {
		ids[i] = seg.ID
	}
	return released, c.journal.MarkCommitted(intentID, head.Version, ids)
}

// beginUpload journals a pass's write-ahead intent: before any block
// leaves this device, the journal records what the pass is about to
// upload, so a crash at ANY later point leaves a replayable record
// instead of silently leaked blocks. A retried batch (same changes
// after a failed pass) re-begins the same intent ID.
func (c *Client) beginUpload(changes []*meta.Change) (string, error) {
	id := journal.BatchID(changes)
	return id, c.journal.Begin(&journal.Intent{
		ID:        id,
		Kind:      journal.KindUpload,
		Device:    c.cfg.Device,
		CreatedAt: c.cfg.Clock.Now(),
		Changes:   changes,
	})
}

// waitedAlone is how long the hold's commit waited on its pass alone:
// from the availability instant until readyAt, when the placements had
// been stamped and journaled, less the part the hold's acquisition and
// refresh ran beside. A hold started at readyAt ran beside none of it.
func (h *hold) waitedAlone(availAt, readyAt time.Time) time.Duration {
	from := availAt
	if h.startedAt.Before(readyAt) && h.lockedAt.After(from) {
		from = h.lockedAt
	}
	return max(0, readyAt.Sub(from))
}

// reuploadMissingSegments is the commit's dedup safety check, under the
// lock: another device may have garbage-collected a deduplicated
// segment the changes rely on. It verifies dedup assumptions against
// the fetched image: any referenced segment that is neither freshly
// uploaded (has block placements in the change) nor present in the
// cloud pool is re-uploaded from the local cache, after the pass's own
// upload has been joined — a tenant has one open batch at the shared
// FairScheduler, whose EndBatch would otherwise clear the other's
// waiting marks.
func (c *Client) reuploadMissingSegments(ctx context.Context, changes []*meta.Change, vc *meta.Image, upload *uploadSession) error {
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
				return err
			}
			if err := c.reuploadSegment(ctx, seg); err != nil {
				return err
			}
		}
	}
	return nil
}

// reuploadSegment uploads one segment from the local cache, to
// reliability, and stamps the placement into its record.
func (c *Client) reuploadSegment(ctx context.Context, seg *meta.Segment) error {
	src, err := c.blockSource(seg)
	if err != nil {
		return err
	}
	defer src.Release()
	plan, err := sched.NewUploadPlan(c.params, c.names)
	if err != nil {
		return err
	}
	if err := c.engine.UploadSegment(ctx, plan, seg.ID, src.Block, plan.Available); err != nil {
		return err
	}
	if !plan.Available() {
		return fmt.Errorf("core: segment %s could not reach availability (%d/%d blocks)",
			seg.ID, len(plan.UploadedBlocks()), c.params.K)
	}
	// Stamp checksums before the deferred release: blockSum reads the
	// still-pooled encoded buffers.
	for blockID, cloudName := range plan.Placement() {
		seg.AddBlockSum(blockID, cloudName, blockSum(src, blockID))
	}
	return nil
}
