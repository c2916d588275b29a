package core

import (
	"unidrive/internal/chunker"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
)

// applyOp is what a pass's plan does with one path.
type applyOp int

const (
	// applySkip leaves the path alone: the folder already agrees with the
	// committed image there. A local change planned skip is not committed:
	// the image already holds its content.
	applySkip applyOp = iota
	// applyRemove deletes the file.
	applyRemove
	// applyFetch downloads the committed content and writes it.
	applyFetch
	// applyUpload commits the pass's local change.
	applyUpload
	// applyConflictCopy moves the local bytes aside to the device's
	// conflict-copy path, then fetches the committed content into the path.
	applyConflictCopy
	// applyDropLocal drops a local change that has nothing left to
	// commit and nothing to do in the folder.
	applyDropLocal
)

// applyAction is one step of a pass's plan: the decision for one path,
// and why.
type applyAction struct {
	op   applyOp
	path string
	// snap is the committed snapshot at path when the span changed it:
	// what a fetch, or a conflict copy's fetch, materializes.
	snap   *meta.Snapshot
	reason string
	// commit is the change the action puts in the pass's commit: an
	// upload's local change, or the Add that records a scanned edit's
	// conflict copy. nil for every other action.
	commit *meta.Change
	// copyPath is where a conflictCopy puts the local bytes.
	copyPath string
}

// The reasons a plan gives.
const (
	reasonDeleted         = "deleted remotely"
	reasonAlreadyGone     = "deleted remotely; not in the folder"
	reasonAbsent          = "not in the folder"
	reasonKnownCurrent    = "the version this device last saw here is the committed one" // own scan, or a resumed apply
	reasonKnownOutdated   = "holds the version this device last saw, which is not the committed one"
	reasonRehashedEqual   = "unscanned bytes hash to the committed version"
	reasonUnknownBytes    = "unscanned bytes differ from the committed version"
	reasonLocalOnly       = "changed only here"
	reasonConcurrentEdit  = "edited here and remotely: both versions are kept"
	reasonEditBeatsDelete = "edited on one side, deleted on the other: the edit survives"
)

// plan is the pass's one planner: the paper's §5.2 reconciliation
// (Algorithm 1 line 7, "compare ΔL with ΔC, retain both versions") as a
// value. It reconciles the pass's local changes (ΔL, as the observer
// recorded them) and the remote span v_o→v_c (ΔC) with the folder's
// stat and the scanner baseline, and returns one action per path: the
// local changes first, in change order, then the span's other paths in
// path order. It changes nothing; it stats, and reads a file only when
// the bytes alone can tell. The local side never looks at the folder,
// so a nil folder plans it alone — the commit's share of the plan, made
// under the quorum lock without a folder call. The table, also
// DESIGN.md §9:
//
//	local change  remote          action
//	add/edit      —               upload
//	add/edit      same content    skip: the image already holds it
//	add/edit      other content   conflictCopy: the edit is committed at the
//	                              conflict-copy path, the remote version
//	                              takes the path
//	add/edit      deleted         upload: the edit survives
//	delete        edited          fetch: the edit survives
//	delete        deleted         dropLocal
//	—, folder holds v_o's version edited: fetch; deleted: remove (skip
//	                              what is already there or gone)
//	—, unscanned bytes            the committed version: skip; v_o's
//	                              version: as above; other bytes against
//	                              an edit: conflictCopy, against a delete:
//	                              skip, the edit survives and the next
//	                              scan commits it
func (c *Client) plan(local []*meta.Change, sp span, folder localfs.Folder) []applyAction {
	actions := make([]applyAction, 0, len(local)+len(sp.diff))
	mine := make(map[string]bool, len(local))
	for _, ch := range local {
		a := c.planLocal(ch, sp.diff)
		// The span may hold the pass's own commit: its paths, conflict
		// copies included, are the local side's.
		mine[a.path], mine[a.copyPath] = true, true
		actions = append(actions, a)
	}
	for _, path := range sp.diff.Paths() {
		if after := sp.diff[path].After; after != nil && !mine[path] && folder != nil {
			actions = append(actions, c.decide(path, sp.before.Lookup(path).Current(), after, folder))
		}
	}
	return actions
}

// planLocal decides a path the pass changed locally against what the
// span committed there.
func (c *Client) planLocal(ch *meta.Change, diff meta.Diff) applyAction {
	a := applyAction{op: applyUpload, path: ch.Path, commit: ch, reason: reasonLocalOnly}
	d, contested := diff[ch.Path]
	if !contested {
		return a
	}
	theirs := d.After
	gone := theirs == nil || theirs.Deleted
	a.snap = theirs
	switch {
	case ch.Type == meta.ChangeDelete && gone:
		a.op, a.commit, a.reason = applyDropLocal, nil, reasonAlreadyGone
	case ch.Type == meta.ChangeDelete:
		a.op, a.commit, a.reason = applyFetch, nil, reasonEditBeatsDelete
	case gone:
		a.reason = reasonEditBeatsDelete
	case theirs.ContentEquals(ch.Snapshot):
		a.op, a.commit, a.reason = applySkip, nil, reasonKnownCurrent
	default:
		// The copy reuses the segments the pass uploaded: it is committed,
		// and recoverable from the clouds, before the device writes it.
		a = c.conflictAt(ch.Path, theirs, reasonConcurrentEdit)
		snap := ch.Snapshot.Clone()
		snap.Path = a.copyPath
		a.commit = &meta.Change{Type: meta.ChangeAdd, Path: a.copyPath, Snapshot: snap, Segments: ch.Segments, Time: ch.Time}
	}
	return a
}

// decide plans a path the span changed and the pass has no local change
// for: known is the content the device last saw there (v_o's), after
// the committed snapshot.
func (c *Client) decide(path string, known, after *meta.Snapshot, folder localfs.Folder) applyAction {
	a := applyAction{op: applySkip, path: path, snap: after}
	fi, err := folder.Stat(path)
	base, _ := c.scanner.BaselineFor([]string{path})
	// local is what the bytes are, as far as the device can tell: known
	// when the stat is the one known was taken (or written) with and the
	// one the scanner baseline holds — no edit has gone unscanned — else
	// what a read shows, read only when the size leaves a match possible.
	local := known
	if err != nil || known == nil || known.Deleted || fi.Size != known.Size || !fi.ModTime.Equal(known.ModTime) ||
		len(base) != 1 || base[0].Size != fi.Size || !base[0].ModTime.Equal(fi.ModTime) {
		local = nil
		if err == nil && (fi.Size == after.Size || known != nil && fi.Size == known.Size) {
			local = c.readSnapshot(folder, path)
		}
	}
	holds := func(snap *meta.Snapshot) bool { return local != nil && local.ContentEquals(snap) }
	switch {
	case err != nil && after.Deleted:
		a.reason = reasonAlreadyGone
	case err != nil:
		a.op, a.reason = applyFetch, reasonAbsent
	case holds(after) && local == known:
		a.reason = reasonKnownCurrent
	case holds(after):
		a.reason = reasonRehashedEqual
	case holds(known) && after.Deleted:
		a.op, a.reason = applyRemove, reasonDeleted
	case holds(known):
		a.op, a.reason = applyFetch, reasonKnownOutdated
	case after.Deleted:
		a.reason = reasonEditBeatsDelete
	default:
		a = c.conflictAt(path, after, reasonUnknownBytes)
	}
	return a
}

// conflictAt is the conflictCopy action for path: the local bytes go
// aside to this device's conflict-copy path, and snap takes the path.
func (c *Client) conflictAt(path string, snap *meta.Snapshot, reason string) applyAction {
	return applyAction{op: applyConflictCopy, path: path, snap: snap, reason: reason,
		copyPath: localfs.ConflictCopyPath(path, c.cfg.Device)}
}

// readSnapshot returns the snapshot the bytes at path would commit as
// (size and segment IDs), nil when they cannot be read. It has no
// caching side effects, unlike recordEvents.
func (c *Client) readSnapshot(folder localfs.Folder, path string) *meta.Snapshot {
	data, err := folder.ReadFile(path)
	if err != nil {
		return nil
	}
	return &meta.Snapshot{Path: path, Size: int64(len(data)), SegmentIDs: chunker.IDs(c.chnk.Split(data))}
}
