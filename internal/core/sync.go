package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unidrive/internal/chunker"
	"unidrive/internal/deltasync"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/qlock"
	"unidrive/internal/sched"
	"unidrive/internal/transfer"
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
	// upload runs on to reliability in the hold's tail (tail.go), and the
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
//	         poll, or the lock round that records owed placements. The
//	         release, the upload's reliability second and the released
//	         blocks' deletes run on in the hold's tail (tail.go)
//	plan     (local changes, span v_o→v_c, folder) → []applyAction
//	         (plan.go): its local side under the lock when the pass
//	         commits, the whole plan on the live folder after release
//	fetch    conflict copies, then removals, then the plan's files
//	         through fetchVerified
//	write    verified content → folder
//	advance  v_o := the pass's head; checkpoint (no block DELETEs: the
//	         committing hold's tail deletes what its commit released)
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
// an earlier pass owes (placements.go), under a lock round of their
// own when nothing else is to be committed.
func (c *Client) SyncRemote(ctx context.Context) (SyncReport, error) {
	return c.pass(ctx, nil, true)
}

// pass runs the stages in order. poll says whether a pass that finds
// nothing to commit still asks the clouds for news; such a pass also
// records the placements owed, in one lock round whose refresh is the
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
	switch {
	case c.changes.Len() > 0:
		local, head, err = c.commitLocal(ctx, &report)
	case poll && c.owing():
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
// commit, handing the batch to the hold's tail (finishUpload). What the
// commit waits for depends on what the batch still owes when it becomes
// available:
//
//   - nothing queued, the rest of every fair share is in flight (a
//     single small file): the pass waits those few blocks out and
//     commits once, naming the full placement;
//   - fair-share blocks still queued behind busy connections (more
//     segments than a cloud has connections): the commit names the
//     blocks landed when it is built, thin where they are short of the
//     target, and the reliability tail keeps uploading beside the commit
//     and after the pass. What lands after the commit is owed to the
//     device's next lock hold (placements.go), and the intent stays
//     committed until then.
//
// Every pass therefore takes at most one lock round — the one that also
// records what an earlier pass owes — and only landed blocks are ever
// named (blocks before metadata, DESIGN.md §8).
//
// The commit's lock round — acquire and refresh, the first part of a
// locked commit — starts with the batch when the batch is small (one
// dispatch, at most θ of content: the single-file commit's shape), so
// it runs beside the upload and the lock hold grows by at most that
// dispatch. Otherwise it starts where it always did, once the pass is
// ready to commit: available (drained: joined), placements stamped and
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
	c.joinTailFor(changes)
	session, err := c.startUpload(ctx, changes)
	if err != nil {
		return nil, nil, err
	}
	// Whatever ends the pass short of its commit — commit error, lost
	// lock, injected crash, cancelled ctx — the batch is cancelled and
	// drained before the coding buffers it reads go back to the pool, and
	// a lock won is released. A committed pass hands the batch to its
	// hold's tail instead (finishUpload).
	defer func() {
		if !ok {
			session.close()
		}
	}()
	var round *lockRound
	early := session.small()
	if early {
		round = c.startLock(ctx)
		defer round.close()
	}
	if err := session.awaitAvailable(); err != nil {
		return nil, nil, err
	}
	report.Upload = session.outcome
	overlap := session.backlog()
	if overlap {
		c.cfg.Obs.Counter("core.commit.overlapped").Inc()
	} else {
		c.cfg.Obs.Counter("core.commit.drained").Inc()
		if err := session.join(); err != nil {
			return nil, nil, err
		}
	}

	// Record the landed placements. Best effort: recovery re-verifies
	// against a live survey, so a lost update costs nothing; but an
	// intact record lets operators see exactly what a crashed pass had
	// achieved.
	_ = c.journal.UpdatePlacementsBatch(intentID, session.stamp(changes))
	readyAt := c.cfg.Clock.Now()
	if !early {
		round = c.startLock(ctx)
		defer round.close()
	}

	var commit []*meta.Change
	commitDone, err := round.commit(c.stack, func(head *meta.Image) ([]*meta.Change, error) {
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
	released, err := c.markCommitted(intentID, round.head, head, commit)
	if err != nil {
		return nil, nil, err
	}
	report.LocalChanges = len(commit)
	report.PlacementsRecorded = round.recorded
	// The paper's "available time": pass start until the commit landed —
	// not the lock release after it, the data is visible to other
	// devices from here — less the time the commit waited on the pass's
	// own tail alone: from availability until the placements were
	// stamped and journaled (the drain, for a drained batch), except
	// while an early lock round was still running.
	lockedAt := time.Time{} // a round started at readyAt ran beside none of it
	if early {
		lockedAt = round.endAt
	}
	report.AvailableDuration = commitDone.Sub(start) - waitedAlone(session.availAt, lockedAt, readyAt)
	ok = true
	c.finishUpload(ctx, session, intentID, overlap, releasedBlocks(released))
	return changes, head, nil
}

// markCommitted journals the pass's intent as committed at head, with
// the segments the commit released — on from, the head it built on,
// against head, the one it made — and returns those: the hold's tail
// deletes their blocks, and Recover does when the tail did not. Owed
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

// finishUpload hands a committed pass's batch to its hold's tail, the
// paper's reliability second, and returns: the pass ends at its commit.
// In the tail the batch runs on to every fair share and is settled: the
// blocks it landed after the commit's stamp are owed to the device's
// next lock hold, which takes them from the tail (takeOwed). Beside the
// batch, from the commit on, the blocks the commit released are deleted:
// none of them is the batch's, whose segments the commit names. The
// intent is cleared once both have ended if nothing is owed; otherwise
// it stays committed until the hold that records the owed blocks. The
// coding buffers go back to the pool once the batch has been settled.
//
// The batch keeps the pass's context: a shutdown stops it. A cancelled
// batch, or a crash in the tail (CrashInTail: the batch is cancelled and
// nothing deleted), leaves the intent committed with nothing owed, so a
// crash anywhere after the commit leaves the same record: Recover
// deletes the released blocks and the batch's blocks no metadata names.
// This pass's hold is the released blocks' only deleter: a device that
// applies the commit deletes nothing.
func (c *Client) finishUpload(ctx context.Context, session *uploadSession, intentID string, overlap bool, released []transfer.BlockRef) {
	up := &tailUpload{done: session.done, settled: make(chan struct{}), intent: intentID}
	c.tail.upload = up
	deletes := c.tailDeletes(ctx, released)
	returned := c.cfg.Clock.Now()
	c.tail.run(func() {
		if c.crashNow(CrashInTail) {
			session.close()
			close(up.settled)
			return
		}
		deleted := make(chan bool, 1)
		go func() { deleted <- deletes() }()
		err := session.join()
		if err == nil {
			if overlap {
				c.cfg.Obs.Histogram("core.commit.tail_ms").Observe(float64(max(0, session.endAt.Sub(returned))) / float64(time.Millisecond))
			}
			up.landed = session.settle()
		}
		session.close()
		close(up.settled)
		if <-deleted && err == nil && len(up.landed) == 0 {
			_ = c.journal.Clear(intentID)
		}
	})
}

// releaseLock starts releasing a quorum lock with a hard deadline, so
// a stalled cloud cannot hang shutdown, and returns the wait for it:
// the release runs beside whatever its caller does next, detached from
// the caller's cancellation (a cancelled sync must still try to
// unlock), and the wait returns once it ended or ReleaseTimeout after
// it started, when it is abandoned and counted under
// qlock.release_timeouts. An abandoned release is safe: the flag files
// expire after LockExpiry and every other device breaks them. The flags
// go only once no metadata write of the hold's commit through store is
// in flight (deltasync.Store.JoinWrites): one landing after the release
// could hide the next holder's commit from a read quorum.
func (c *Client) releaseLock(ctx context.Context, lock *qlock.Lock, store *deltasync.Store) (wait func()) {
	rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.cfg.ReleaseTimeout)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer cancel()
		store.JoinWrites()
		_ = lock.Release(rctx)
	}()
	return func() {
		select {
		case <-done:
		case <-rctx.Done():
			c.cfg.Obs.Counter("qlock.release_timeouts").Inc()
		}
	}
}

// lockedCommit is the one locked commit: acquire the quorum lock,
// refresh, build the changes from the committed head, check the lock
// still holds, commit through to's store, and leave the release to the
// hold's tail (tail.go). to is the client's
// own stack for every caller but SetClouds, whose commit lands on the
// new cloud set. build runs under the lock and must not touch the
// folder. Every hold also records the placements owed (placements.go);
// it returns how many segments' records it rewrote for them. Callers
// hold Client.writer: the lock manager does not exclude this device's
// own concurrent acquisitions (qlock.Manager).
//
// It is a lockRound's two parts back to back; commitLocal runs the same
// two with its upload between them.
func (c *Client) lockedCommit(ctx context.Context, to stack, build func(head *meta.Image) ([]*meta.Change, error)) (int, error) {
	round := c.startLock(ctx)
	defer round.close()
	_, err := round.commit(to, build)
	return round.recorded, err
}

// lockRound is a locked commit split in two. The first part runs on
// its own goroutine from startLock: acquire the quorum lock, then
// refresh the store to the head the commit builds on. commit is the
// second part: join the last hold's tail, build, add the owed
// placements, check, commit, and hand the release to the hold's tail
// (tail.go). close ends the round on every path out, cancelling a
// first part still running, and releasing a lock won but never
// committed under, or whose commit failed, and waiting for that
// release: no lock request of a failed round outlives it.
type lockRound struct {
	c      *Client
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the first part has ended, at endAt
	endAt  time.Time
	// lock is the won lock until commit or close releases it; head and
	// err are the first part's outcome.
	lock *qlock.Lock
	head *meta.Image
	err  error
	// released waits for the release of a lock whose commit failed.
	released func()
	// recorded is the number of owed segment placements the commit
	// recorded.
	recorded int
}

func (c *Client) startLock(ctx context.Context) *lockRound {
	ctx, cancel := context.WithCancel(ctx)
	r := &lockRound{c: c, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer func() { r.endAt = c.cfg.Clock.Now() }()
		if r.lock, r.err = c.locks.Acquire(ctx); r.err != nil {
			return
		}
		if c.crashNow(CrashPreCommit) {
			r.err = ErrCrashInjected
			return
		}
		// Refresh polls the cheap version stamps and catches up
		// (delta-only when possible) only if a newer commit is pending.
		r.head, r.err = c.store.Refresh(ctx)
	}()
	return r
}

// commit waits for the first part, joins the last hold's tail and runs
// the second part (lockedCommit). It returns the instant the commit
// completed (or found nothing to commit), with the release running in
// the hold's tail; a hold that recorded the owed placements settles
// them there too. A commit that failed is released beside the caller,
// and close waits for that release.
func (r *lockRound) commit(to stack, build func(head *meta.Image) ([]*meta.Change, error)) (time.Time, error) {
	<-r.done
	if r.err != nil {
		return time.Time{}, r.err
	}
	lock := r.lock
	r.lock = nil
	tail := r.c.startTail()
	owing := len(r.c.owed.intents) > 0
	dropped, err := r.commitHeld(lock, to, build)
	committedAt := r.c.cfg.Clock.Now()
	release := r.c.releaseLock(r.ctx, lock, to.store)
	if err != nil {
		r.released = release
		return time.Time{}, err
	}
	tail.run(release)
	if owing {
		r.c.settleOwed(r.ctx, dropped)
	}
	return committedAt, nil
}

// commitHeld is what a hold does under the lock: record the owed
// placements on the head, build the changes on top of that, check the
// lock and commit. It returns the owed blocks the commit does not name.
func (r *lockRound) commitHeld(lock *qlock.Lock, to stack, build func(head *meta.Image) ([]*meta.Change, error)) ([]transfer.BlockRef, error) {
	base, owed, dropped := r.head, []*meta.Change(nil), []transfer.BlockRef(nil)
	if len(r.c.owed.intents) > 0 {
		owed, dropped = r.c.rebaseOwed(r.head, &to)
		var err error
		if base, err = r.head.ApplyCOW(owed, r.c.cfg.Device); err != nil {
			return nil, err
		}
	}
	changes, err := build(base)
	if err != nil {
		return nil, err
	}
	if len(r.c.owed.intents) > 0 {
		post, err := base.ApplyCOW(changes, r.c.cfg.Device)
		if err != nil {
			return nil, err
		}
		owed, dropped = r.c.outlived(post, owed, dropped)
		r.recorded = len(owed)
		changes = append(owed, changes...)
	}
	if len(changes) == 0 {
		return dropped, nil
	}
	if !lock.Valid() {
		return nil, fmt.Errorf("core: quorum lock lost before commit")
	}
	if _, err := to.store.Commit(r.ctx, changes); err != nil {
		return nil, err
	}
	if r.c.crashNow(CrashPostCommit) {
		// The commit landed but the journal has not heard: the pass's own
		// intent still says "uploading", an owed one is still there.
		// Recovery must tell from the image itself.
		return nil, ErrCrashInjected
	}
	return dropped, nil
}

func (r *lockRound) close() {
	select {
	case <-r.done:
	default:
		r.cancel() // still contending or refreshing: of no use any more
		<-r.done
	}
	if r.lock != nil {
		r.released = r.c.releaseLock(r.ctx, r.lock, r.c.store)
	}
	if r.released != nil {
		r.released()
	}
	r.cancel()
}

// waitedAlone is how long a commit waited on its pass alone: from the
// availability instant or the end of the lock round, whichever came
// later, to readyAt.
func waitedAlone(availAt, lockedAt, readyAt time.Time) time.Duration {
	from := availAt
	if lockedAt.After(from) {
		from = lockedAt
	}
	if readyAt.After(from) {
		return readyAt.Sub(from)
	}
	return 0
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
