package core

import (
	"testing"
	"time"

	"unidrive/internal/localfs"
	"unidrive/internal/meta"
)

// TestPlan is the planner's table (DESIGN.md §9) over a folder with no
// clouds: every reconciliation rule with the local change scanned — a
// change the pass commits — and unscanned — an edit only the folder
// shows — plus every TestPlanApply row. A row's file is written at t1,
// or at t0 when it holds v_o's version, which the device saw at t0.
func TestPlan(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	t1 := t0.Add(time.Minute)
	v1, v2, v3 := randContent(1, 9000), randContent(2, 9000), randContent(3, 9000)
	const path = "doc.bin"
	copyPath := localfs.ConflictCopyPath(path, "alpha")

	for _, row := range []struct {
		name string
		// disk is the file in the folder ("" = none); base the stat the
		// scanner baseline holds: "disk", "known" (v_o's version, t0) or
		// "" (none).
		disk, base string
		// known is v_o's content ("" = path unknown to v_o); local the
		// pass's change of disk's content ("", "add", "edit" or "delete").
		known, local string
		// inSpan says the span changed the path, to remote ("" = a
		// tombstone).
		inSpan bool
		remote string

		wantOp     applyOp
		wantReason string
		wantReads  int
		// wantCommit is the path the plan commits ("" = nothing).
		wantCommit string
	}{
		// The reconciliation rules, the local change scanned.
		{name: "edited here only, scanned", disk: v2, base: "disk", known: v1, local: "edit",
			wantOp: applyUpload, wantReason: reasonLocalOnly, wantCommit: path},
		{name: "same content on both sides, scanned", disk: v2, base: "disk", known: v1, local: "edit", inSpan: true, remote: v2,
			wantOp: applySkip, wantReason: reasonKnownCurrent},
		{name: "edited on both sides, scanned", disk: v2, base: "disk", known: v1, local: "edit", inSpan: true, remote: v3,
			wantOp: applyConflictCopy, wantReason: reasonConcurrentEdit, wantCommit: copyPath},
		{name: "edited here, deleted remotely, scanned", disk: v2, base: "disk", known: v1, local: "edit", inSpan: true,
			wantOp: applyUpload, wantReason: reasonEditBeatsDelete, wantCommit: path},
		{name: "deleted here, edited remotely, scanned", known: v1, local: "delete", inSpan: true, remote: v3,
			wantOp: applyFetch, wantReason: reasonEditBeatsDelete},
		{name: "deleted on both sides, scanned", known: v1, local: "delete", inSpan: true,
			wantOp: applyDropLocal, wantReason: reasonAlreadyGone},

		// The same rules, the local change unscanned.
		{name: "edited here only, unscanned", disk: v2, base: "known", known: v1,
			wantOp: -1},
		{name: "same content on both sides, unscanned", disk: v2, base: "known", known: v1, inSpan: true, remote: v2,
			wantOp: applySkip, wantReason: reasonRehashedEqual, wantReads: 1},
		{name: "edited on both sides, unscanned", disk: v2, base: "known", known: v1, inSpan: true, remote: v3,
			wantOp: applyConflictCopy, wantReason: reasonUnknownBytes, wantReads: 1},
		{name: "edited here, deleted remotely, unscanned", disk: v2, base: "known", known: v1, inSpan: true,
			wantOp: applySkip, wantReason: reasonEditBeatsDelete, wantReads: 1},
		{name: "deleted here, edited remotely, unscanned", base: "known", known: v1, inSpan: true, remote: v3,
			wantOp: applyFetch, wantReason: reasonAbsent},
		{name: "deleted on both sides, unscanned", base: "known", known: v1, inSpan: true,
			wantOp: applySkip, wantReason: reasonAlreadyGone},

		// TestPlanApply's rows.
		{name: "remote delete of a present file", disk: v1, base: "disk", known: v1, inSpan: true,
			wantOp: applyRemove, wantReason: reasonDeleted},
		{name: "remote delete of an absent file", known: v1, inSpan: true,
			wantOp: applySkip, wantReason: reasonAlreadyGone},
		{name: "new remote file", inSpan: true, remote: v2,
			wantOp: applyFetch, wantReason: reasonAbsent},
		{name: "content already on disk by the known snapshot", disk: v2, base: "disk", known: v2, inSpan: true, remote: v2,
			wantOp: applySkip, wantReason: reasonKnownCurrent},
		{name: "known previous version, same size", disk: v1, base: "disk", known: v1, inSpan: true, remote: v2,
			wantOp: applyFetch, wantReason: reasonKnownOutdated},
		{name: "same size, unscanned edit that is the committed version", disk: v2, known: v1, inSpan: true, remote: v2,
			wantOp: applySkip, wantReason: reasonRehashedEqual, wantReads: 1},
		{name: "same size, unscanned edit that is something else", disk: v3, known: v1, inSpan: true, remote: v2,
			wantOp: applyConflictCopy, wantReason: reasonUnknownBytes, wantReads: 1},
		{name: "unscanned edit of another size", disk: v3[:100], known: v1, inSpan: true, remote: v2,
			wantOp: applyConflictCopy, wantReason: reasonUnknownBytes},
		{name: "own just-committed path", disk: v2, base: "disk", local: "add", inSpan: true, remote: v2,
			wantOp: applySkip, wantReason: reasonKnownCurrent},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := newPlanRig(t)
			diskAt := t1
			if row.disk == row.known {
				diskAt = t0
			}
			if row.disk != "" {
				if err := p.folder.WriteFile(path, []byte(row.disk), diskAt); err != nil {
					t.Fatal(err)
				}
			}
			switch row.base {
			case "disk":
				p.c.scanner.Suppress(path, int64(len(row.disk)), diskAt, false)
			case "known":
				p.c.scanner.Suppress(path, int64(len(row.known)), t0, false)
			}
			sp := span{before: meta.NewImage(), after: meta.NewImage(), diff: meta.Diff{}}
			var before *meta.Snapshot
			if row.known != "" {
				before = p.snap(path, row.known, t0)
				sp.before.SetSnapshot(before)
			}
			if row.inSpan {
				after := &meta.Snapshot{Path: path, Deleted: true, ModTime: t1, Device: "beta"}
				if row.remote != "" {
					after = p.snap(path, row.remote, t1)
				}
				sp.diff[path] = meta.DiffEntry{Path: path, Before: before, After: after}
			}
			var local []*meta.Change
			switch row.local {
			case "add", "edit":
				typ := meta.ChangeAdd
				if row.local == "edit" {
					typ = meta.ChangeEdit
				}
				local = append(local, &meta.Change{Type: typ, Path: path, Snapshot: p.snap(path, row.disk, diskAt)})
			case "delete":
				local = append(local, &meta.Change{Type: meta.ChangeDelete, Path: path, Time: t1})
			}

			// Under the lock: the local side alone, and nothing read.
			locked := p.c.plan(local, sp, nil)
			if n := p.folder.take(path); n != 0 || len(locked) != len(local) {
				t.Fatalf("with no folder the plan read %d times and has %d actions, want 0 and %d", n, len(locked), len(local))
			}

			actions := p.c.plan(local, sp, p.folder)
			if row.wantOp == -1 {
				if len(actions) != 0 {
					t.Fatalf("plan = %+v, want none: the path is not in the span and no scan has seen the edit", actions)
				}
				return
			}
			if len(actions) != 1 {
				t.Fatalf("plan = %+v, want one action", actions)
			}
			got := actions[0]
			if got.op != row.wantOp || got.reason != row.wantReason || got.path != path {
				t.Fatalf("action = {op %d, %q, reason %q}, want {op %d, reason %q}", got.op, got.path, got.reason, row.wantOp, row.wantReason)
			}
			if row.inSpan && got.snap != sp.diff[path].After {
				t.Fatal("the action does not carry the committed snapshot")
			}
			if n := p.folder.take(path); n != row.wantReads {
				t.Fatalf("the plan read the file %d times, want %d", n, row.wantReads)
			}
			if got.op == applyConflictCopy && got.copyPath != copyPath {
				t.Fatalf("conflict copy goes to %q, want %q", got.copyPath, copyPath)
			}
			if len(local) > 0 && (locked[0].op != got.op || locked[0].reason != got.reason) {
				t.Fatalf("the locked plan decided {op %d, %q}, the live one {op %d, %q}", locked[0].op, locked[0].reason, got.op, got.reason)
			}
			switch {
			case row.wantCommit == "" && got.commit != nil:
				t.Fatalf("the plan commits %q, want nothing", got.commit.Path)
			case row.wantCommit != "" && (got.commit == nil || got.commit.Path != row.wantCommit):
				t.Fatalf("the plan commits %+v, want a change at %q", got.commit, row.wantCommit)
			case got.commit != nil && !got.commit.Snapshot.ContentEquals(local[0].Snapshot):
				t.Fatal("the committed change does not carry the local content")
			}
		})
	}
}
