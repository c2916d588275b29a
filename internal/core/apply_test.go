package core

import (
	"testing"
	"time"

	"unidrive/internal/chunker"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
)

// planRig is a client with a folder and no clouds at all: the plan stage
// may stat and read the folder and ask the scanner, nothing else.
type planRig struct {
	c      *Client
	folder *countingFolder
}

func newPlanRig(t *testing.T) *planRig {
	t.Helper()
	chnk, err := chunker.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	folder := newCountingFolder()
	return &planRig{folder: folder, c: &Client{
		cfg:     Config{Device: "alpha"},
		folder:  folder,
		scanner: localfs.NewScanner(folder),
		chnk:    chnk,
	}}
}

// snap is the snapshot a scan of content at path would take.
func (p *planRig) snap(path, content string, modTime time.Time) *meta.Snapshot {
	s := &meta.Snapshot{Path: path, Size: int64(len(content)), ModTime: modTime, Device: "beta"}
	for _, seg := range p.c.chnk.Split([]byte(content)) {
		s.SegmentIDs = append(s.SegmentIDs, chunker.SegmentID(seg.Data))
	}
	return s
}

// TestPlanApply drives the plan stage alone: each row is one path of a
// span's diff, with the folder, the scanner baseline and the device's
// last-known snapshot arranged by hand.
func TestPlanApply(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	t1 := t0.Add(time.Minute)
	v1, v2, other := randContent(1, 9000), randContent(2, 9000), randContent(3, 9000)

	for _, row := range []struct {
		name string
		// onDisk is the file in the folder ("" = none), written at diskTime;
		// scannedOnDisk says the scanner baseline holds that very stat.
		onDisk        string
		diskTime      time.Time
		scannedOnDisk bool
		// applied is the content of the image the device had applied
		// ("" = path unknown to it), own what this pass itself scanned and
		// committed ("" = nothing), committed what the span's head holds
		// ("" = a tombstone).
		applied, own, committed string

		wantOp     applyOp
		wantReason string
		wantReads  int
	}{
		{name: "remote delete of a present file", onDisk: v1, diskTime: t0, scannedOnDisk: true, applied: v1,
			wantOp: applyRemove, wantReason: reasonDeleted},
		{name: "remote delete of an absent file", applied: v1,
			wantOp: applySkip, wantReason: reasonAlreadyGone},
		{name: "new remote file", committed: v2,
			wantOp: applyFetch, wantReason: reasonAbsent},
		{name: "content already on disk by the known snapshot", onDisk: v2, diskTime: t1, scannedOnDisk: true, applied: v2, committed: v2,
			wantOp: applySkip, wantReason: reasonKnownCurrent},
		{name: "known previous version, same size", onDisk: v1, diskTime: t0, scannedOnDisk: true, applied: v1, committed: v2,
			wantOp: applyFetch, wantReason: reasonKnownOutdated},
		{name: "same size, unscanned edit that is the committed version", onDisk: v2, diskTime: t1, applied: v1, committed: v2,
			wantOp: applySkip, wantReason: reasonRehashedEqual, wantReads: 1},
		{name: "same size, unscanned edit that is something else", onDisk: other, diskTime: t1, applied: v1, committed: v2,
			wantOp: applyConflictCopy, wantReason: reasonUnknownBytes, wantReads: 1},
		{name: "unscanned edit of another size", onDisk: other[:100], diskTime: t1, applied: v1, committed: v2,
			wantOp: applyConflictCopy, wantReason: reasonUnknownBytes},
		{name: "own just-committed path", onDisk: v2, diskTime: t1, scannedOnDisk: true, own: v2, committed: v2,
			wantOp: applySkip, wantReason: reasonKnownCurrent},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := newPlanRig(t)
			const path = "doc.bin"
			if row.onDisk != "" {
				if err := p.folder.WriteFile(path, []byte(row.onDisk), row.diskTime); err != nil {
					t.Fatal(err)
				}
				if row.scannedOnDisk {
					p.c.scanner.Suppress(path, int64(len(row.onDisk)), row.diskTime, false)
				}
			}
			sp := span{before: meta.NewImage(), after: meta.NewImage(), diff: meta.Diff{}}
			entry := meta.DiffEntry{Path: path}
			if row.applied != "" {
				appliedAt := t0
				if row.applied == row.onDisk {
					appliedAt = row.diskTime // what is on disk is what the device applied
				}
				entry.Before = p.snap(path, row.applied, appliedAt)
				sp.before.SetSnapshot(entry.Before)
			}
			entry.After = &meta.Snapshot{Path: path, Deleted: true, ModTime: t1, Device: "beta"}
			if row.committed != "" {
				entry.After = p.snap(path, row.committed, t1)
			}
			sp.diff[path] = entry
			var scanned []*meta.Change
			if row.own != "" {
				scanned = append(scanned, &meta.Change{Type: meta.ChangeAdd, Path: path, Snapshot: p.snap(path, row.own, t1)})
			}

			actions := p.c.plan(scanned, sp, p.folder)
			if len(actions) != 1 {
				t.Fatalf("plan = %+v, want one action", actions)
			}
			got := actions[0]
			if got.op != row.wantOp || got.reason != row.wantReason || got.path != path || got.snap != entry.After {
				t.Fatalf("action = {op %d, %q, reason %q}, want {op %d, reason %q} carrying the committed snapshot",
					got.op, got.path, got.reason, row.wantOp, row.wantReason)
			}
			if n := p.folder.take(path); n != row.wantReads {
				t.Fatalf("the plan read the file %d times, want %d", n, row.wantReads)
			}
		})
	}
}
