package core

import (
	"context"
	"fmt"
	"time"

	"unidrive/internal/journal"
	"unidrive/internal/meta"
	"unidrive/internal/transfer"
)

// span is the stretch of committed history a pass plans over: from the
// device's view (Algorithm 1's v_o) to a head the store has cached.
type span struct {
	before, after *meta.Image
	// diff is the per-path content difference and paths the paths whose
	// entries the span moved (diffForApply); both are left empty when
	// the head has not moved.
	diff  meta.Diff
	paths []string
}

func (c *Client) spanTo(head *meta.Image) span {
	sp := span{before: c.lastImage(), after: head}
	if sp.moved() {
		sp.diff, sp.paths = c.diffForApply(sp.before, sp.after)
	}
	return sp
}

func (sp span) moved() bool {
	return sp.after.Version != sp.before.Version || sp.after.Device != sp.before.Device
}

// apply runs the stages after the commit: plan on the live folder over
// the span from v_o to head — the pass's own commit, when it made one —
// fetch and write, advance the device's view. local are the changes the
// pass committed. When nothing was committed anywhere the span has not
// moved, and planning it touches nothing.
func (c *Client) apply(ctx context.Context, local []*meta.Change, head *meta.Image, report *SyncReport) error {
	sp := c.spanTo(head)
	n, err := c.execute(ctx, sp, c.plan(local, sp, c.folder), report)
	report.CloudChanges = n
	if err != nil {
		return err
	}
	c.advance(head)
	report.Version = c.lastImage().Version
	return nil
}

// advance is an operation's last stage and the only code that moves the
// device's view. The folder agrees with head — a pass executed its plan,
// a maintenance commit writes no file — so v_o becomes head, or the
// store's head when nothing committed after head changes a file
// (placement records: a maintenance commit's, another device's, final
// placements a hold recorded). The local content cache of the segments
// the span committed is dropped and the new state is checkpointed.
// Moving the view deletes no block: the blocks of a segment a commit
// released are deleted once, by the hold that made that commit
// (releasedBlocks).
func (c *Client) advance(head *meta.Image) {
	if cur := c.store.CachedShared(); cur.Version > head.Version {
		if d, _ := c.diffForApply(head, cur); len(d) == 0 {
			head = cur
		}
	}
	if sp := c.spanTo(head); sp.moved() {
		c.setLast(sp.after)
		c.dropSegmentCache(referencedSegments(sp.after, sp.paths))
		// Best effort: a failed checkpoint only costs restart efficiency,
		// not correctness.
		_ = c.checkpoint()
	}
}

// diffForApply computes the per-path difference between two cached
// images. When the store's version chain covers the (before, after]
// span, only the paths named by the chain's change records are
// compared — O(changes in the span) instead of the O(folder) tree
// walk of meta.DiffImages, which is what keeps applying passes flat
// as the folder grows. The second result is the unique file paths the
// chain reported changed (including ones whose current content ended up
// equal — their entry may still have shed or gained segment
// references), or nil when the chain did not cover the span and the
// caller must consider every path.
func (c *Client) diffForApply(before, after *meta.Image) (meta.Diff, []string) {
	if after.Version > before.Version {
		if changes, ok := c.store.ChangesSince(before.Version, after.Version); ok {
			c.cfg.Obs.Counter("sync.diff.chain").Inc()
			d := make(meta.Diff)
			seen := make(map[string]bool, len(changes))
			var paths []string
			for _, ch := range changes {
				if ch.Type == meta.ChangePlace || seen[ch.Path] {
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

// folderWriter is the write stage: removals and verified file content
// go into the folder through it, each self-write is reported to the
// scanner, and it models CrashMidApply — once the armed number of
// mutations has landed it stops touching the folder, as a killed
// process would.
type folderWriter struct {
	c          *Client
	applied    int
	crashAfter int
	crashArmed bool
	crashed    bool
}

func (w *folderWriter) remove(path string) error {
	if w.crashed {
		return nil
	}
	if err := w.c.folder.Remove(path); err != nil {
		return err
	}
	w.c.suppress(path, 0, time.Time{}, true)
	w.landed()
	return nil
}

func (w *folderWriter) write(snap *meta.Snapshot, data []byte) error {
	if w.crashed {
		return nil
	}
	if err := w.c.folder.WriteFile(snap.Path, data, snap.ModTime); err != nil {
		return err
	}
	w.c.suppress(snap.Path, int64(len(data)), snap.ModTime, false)
	w.landed()
	return nil
}

func (w *folderWriter) landed() {
	w.applied++
	w.crashed = w.crashArmed && w.applied >= w.crashAfter
}

// execute carries out a plan — the fetch and write stages. The touched
// paths are journaled before the first folder mutation (a crash
// mid-apply leaves a half-written folder, and without a record the next
// scan would re-detect the downloaded halves as local edits); conflict
// copies move the local bytes aside before anything writes their path;
// removals are applied; every fetch goes through fetchFiles, each file
// written the moment its last segment verifies. It returns the number
// of files removed or written. A failure leaves the intent in the
// journal, so the half-applied pass stays resumable.
func (c *Client) execute(ctx context.Context, sp span, actions []applyAction, report *SyncReport) (int, error) {
	id := fmt.Sprintf("apply:%d-%d", sp.before.Version, sp.after.Version)
	intent := &journal.Intent{ID: id, Kind: journal.KindApply, Device: c.cfg.Device, CreatedAt: c.cfg.Clock.Now()}
	var fetches []*meta.Snapshot
	for _, a := range actions {
		switch a.op {
		case applyConflictCopy:
			intent.Paths = append(intent.Paths, a.copyPath)
			fallthrough
		case applyFetch:
			fetches = append(fetches, a.snap)
			fallthrough
		case applyRemove:
			intent.Paths = append(intent.Paths, a.path)
		}
	}
	if len(intent.Paths) == 0 {
		return 0, nil
	}
	if err := c.journal.Begin(intent); err != nil {
		return 0, err
	}
	w := &folderWriter{c: c}
	w.crashAfter, w.crashArmed = c.crashThreshold(CrashMidApply)
	for _, a := range actions {
		if a.op == applyConflictCopy {
			if err := c.copyAside(a, report); err != nil {
				return 0, err
			}
		}
	}
	for _, a := range actions {
		if a.op == applyRemove {
			if err := w.remove(a.path); err != nil {
				return w.applied, err
			}
		}
	}
	err := c.fetchFiles(ctx, sp.after, fetches, func(i int, data []byte) error {
		return w.write(fetches[i], data)
	})
	if err != nil {
		return w.applied, err
	}
	if w.crashed {
		return w.applied, ErrCrashInjected
	}
	// Every path landed; the half-applied window is closed.
	return w.applied, c.journal.Clear(id)
}

// copyAside is a conflict copy's local half: the bytes at the path go
// to the copy path. A scanned edit's copy is committed already and is
// written as its snapshot; an unscanned edit's copy is a new file, which
// the next scan commits.
func (c *Client) copyAside(a applyAction, report *SyncReport) error {
	data, err := c.folder.ReadFile(a.path)
	if err != nil {
		return nil // gone since the plan; a committed copy stays in the clouds
	}
	if a.commit == nil {
		err = c.folder.WriteFile(a.copyPath, data, c.cfg.Clock.Now())
	} else if err = c.folder.WriteFile(a.copyPath, data, a.commit.Snapshot.ModTime); err == nil {
		c.suppress(a.copyPath, int64(len(data)), a.commit.Snapshot.ModTime, false)
	}
	if err == nil {
		report.Conflicts = append(report.Conflicts, a.copyPath)
	}
	return err
}

// referencedSegments lists the segments the entries of paths reference
// in img, every snapshot of each; nil paths means every segment of img.
func referencedSegments(img *meta.Image, paths []string) []string {
	var ids []string
	if paths == nil {
		for id := range img.AllSegments() {
			ids = append(ids, id)
		}
		return ids
	}
	seen := make(map[string]bool)
	for _, p := range paths {
		if e := img.Lookup(p); e != nil {
			for _, snap := range e.Snapshots {
				for _, id := range snap.SegmentIDs {
					if !seen[id] {
						seen[id] = true
						ids = append(ids, id)
					}
				}
			}
		}
	}
	return ids
}

// releasedSegments lists the segments a commit of changes from one
// image to the next released: referenced by the entries of the changes'
// paths in from — every snapshot, since a conflict-retaining entry
// holds references beyond Current() — and held by to no more. Their
// records are from's.
func releasedSegments(from, to *meta.Image, changes []*meta.Change) []*meta.Segment {
	paths := make([]string, len(changes))
	for i, ch := range changes {
		paths[i] = ch.Path
	}
	var dead []*meta.Segment
	for _, id := range referencedSegments(from, paths) {
		if _, alive := to.Segment(id); alive {
			continue
		}
		if seg, ok := from.Segment(id); ok {
			dead = append(dead, seg)
		}
	}
	return dead
}

// releasedBlocks lists the coded blocks of releasedSegments: what a
// committing pass's hold deletes, once, from the instant of its commit
// (hold.upload). No other device deletes them.
func releasedBlocks(released []*meta.Segment) []transfer.BlockRef {
	var doomed []transfer.BlockRef
	for _, seg := range released {
		for _, b := range seg.Blocks {
			doomed = append(doomed, transfer.BlockRef{SegID: seg.ID, BlockID: b.BlockID, Cloud: b.CloudID})
		}
	}
	return doomed
}
