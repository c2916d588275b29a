package core

import (
	"context"
	"fmt"
	"time"

	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/transfer"
)

// span is the stretch of committed history a pass applies: from the
// device's view (Algorithm 1's v_o) to the head the store has cached.
type span struct {
	before, after *meta.Image
	// diff is the per-path content difference and gcPaths the
	// garbage-collection candidate set (diffForApply); both are left
	// empty when the head has not moved.
	diff    meta.Diff
	gcPaths []string
}

func (c *Client) span() span {
	sp := span{before: c.lastImage(), after: c.store.CachedShared()}
	if sp.moved() {
		sp.diff, sp.gcPaths = c.diffForApply(sp.before, sp.after)
	}
	return sp
}

func (sp span) moved() bool {
	return sp.after.Version != sp.before.Version || sp.after.Device != sp.before.Device
}

// apply runs the stages after the commit: plan what the span changes
// in the folder, fetch and write it, advance the device's view. When
// nothing was committed anywhere it is a no-op that never materializes
// or diffs an image. scanned lists the local changes this pass
// committed, as the observer recorded them.
func (c *Client) apply(ctx context.Context, scanned []*meta.Change, report *SyncReport) error {
	sp := c.span()
	report.Version = sp.after.Version
	if !sp.moved() {
		return nil
	}
	n, err := c.executeApply(ctx, sp, c.planApply(sp, scanned))
	if err != nil {
		return err
	}
	report.CloudChanges = n
	c.advance(ctx, sp)
	return nil
}

// advance is a pass's last stage and the only code that moves the
// device's view: v_o becomes the span's head, the blocks of segments
// the span dropped are deleted, and the new state is checkpointed.
// Callers have made the folder agree with the head first — a pass by
// executing its apply plan, a maintenance commit (relocate) by checking
// that the span changes no file.
func (c *Client) advance(ctx context.Context, sp span) {
	c.setLast(sp.after)
	c.gcSegments(ctx, sp.before, sp.after, sp.gcPaths)
	// Best effort: a failed checkpoint only costs restart efficiency,
	// not correctness.
	_ = c.checkpoint()
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

// applyOp is what the apply plan does with one path.
type applyOp int

const (
	// applySkip leaves the path alone: the folder already agrees with
	// the committed image there.
	applySkip applyOp = iota
	// applyRemove deletes the file.
	applyRemove
	// applyFetch downloads the committed content and writes it.
	applyFetch
)

// applyAction is one step of an apply plan: the decision for one path
// the span changed, and why.
type applyAction struct {
	op   applyOp
	path string
	// snap is the committed snapshot an applyFetch materializes.
	snap   *meta.Snapshot
	reason string
}

// The reasons an apply plan gives.
const (
	reasonDeleted       = "deleted remotely"
	reasonAlreadyGone   = "deleted remotely; not in the folder"
	reasonAbsent        = "not in the folder"
	reasonKnownCurrent  = "the version this device last saw here is the committed one" // own commit, or a resumed apply
	reasonKnownOutdated = "holds the version this device last saw, which is not the committed one"
	reasonRehashedEqual = "unscanned bytes hash to the committed version"
	reasonUnknownBytes  = "unscanned bytes differ from the committed version"
)

// planApply is the plan stage: it turns the span's diff, the folder's
// stat and the content this device last knew at each path into one
// action per changed path, in path order. It reads the folder (a stat
// per path; the bytes only of a same-size file no scan has seen) and
// touches nothing. The content last known at a path is what this pass
// observed there (scanned), else what the image it had applied says.
func (c *Client) planApply(sp span, scanned []*meta.Change) []applyAction {
	ownScan := make(map[string]*meta.Snapshot, len(scanned))
	for _, ch := range scanned {
		if ch.Type != meta.ChangeRelocate {
			ownScan[ch.Path] = ch.Snapshot
		}
	}
	var actions []applyAction
	for _, path := range sp.diff.Paths() {
		after := sp.diff[path].After
		if after == nil {
			continue
		}
		known, observed := ownScan[path]
		if !observed {
			known = sp.before.Lookup(path).Current()
		}
		op, reason := c.planPath(path, after, known)
		actions = append(actions, applyAction{op: op, path: path, snap: after, reason: reason})
	}
	return actions
}

// planPath decides one path: after is its committed snapshot, known the
// content this device last saw there.
func (c *Client) planPath(path string, after, known *meta.Snapshot) (applyOp, string) {
	fi, err := c.folder.Stat(path)
	present := err == nil
	switch {
	case after.Deleted && present:
		return applyRemove, reasonDeleted
	case after.Deleted:
		return applySkip, reasonAlreadyGone
	case !present:
		return applyFetch, reasonAbsent
	case c.unchangedSince(fi, known):
		// The device knows what these bytes hash to without reading
		// them again.
		if known.ContentEquals(after) {
			return applySkip, reasonKnownCurrent
		}
		return applyFetch, reasonKnownOutdated
	case fi.Size == after.Size:
		// An edit no scan has seen, or a half-apply recovery restored:
		// only the bytes can tell.
		if _, same := c.localMatches(path, after); same {
			return applySkip, reasonRehashedEqual
		}
	}
	return applyFetch, reasonUnknownBytes
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

// executeApply carries out an apply plan — the fetch and write stages.
// The touched paths are journaled before the first folder mutation (a
// crash mid-apply leaves a half-written folder, and without a record
// the next scan would re-detect the downloaded halves as local edits);
// removals are applied; every fetch goes through fetchFiles, each file
// written the moment its last segment verifies. It returns the number
// of folder mutations. A failure leaves the intent in the journal, so
// the half-applied pass stays resumable.
func (c *Client) executeApply(ctx context.Context, sp span, actions []applyAction) (int, error) {
	if len(actions) == 0 {
		return 0, nil
	}
	intentID := fmt.Sprintf("apply:%d-%d", sp.before.Version, sp.after.Version)
	intent := &journal.Intent{ID: intentID, Kind: journal.KindApply, Device: c.cfg.Device, CreatedAt: c.cfg.Clock.Now()}
	var fetches []*meta.Snapshot
	for _, a := range actions {
		intent.Paths = append(intent.Paths, a.path)
		if a.op == applyFetch {
			fetches = append(fetches, a.snap)
		}
	}
	if err := c.journal.Begin(intent); err != nil {
		return 0, err
	}
	w := &folderWriter{c: c}
	w.crashAfter, w.crashArmed = c.crashThreshold(CrashMidApply)
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
	return w.applied, c.journal.Clear(intentID)
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
