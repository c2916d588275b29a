package core

import (
	"bytes"
	"testing"

	"unidrive/internal/localfs"
	"unidrive/internal/meta"
)

func totalBlocks(r *rig) int {
	n := 0
	for _, st := range r.stores {
		n += st.FileCount()
	}
	return n
}

func TestTrimOverProvisionedReclaimsSpace(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	content := randContent(21, 9000)
	writeFile(t, fa, "file.bin", content)
	syncOK(t, a)
	recordPlacements(t, a)

	img := a.Image()
	fair := a.Params().FairShare()
	over := 0
	for _, seg := range img.AllSegments() {
		perCloud := map[string]int{}
		for _, b := range seg.Blocks {
			perCloud[b.CloudID]++
		}
		for _, n := range perCloud {
			if n > fair {
				over += n - fair
			}
		}
	}
	deleted, err := a.TrimOverProvisioned(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if deleted != over {
		t.Fatalf("deleted %d blocks, expected the %d over-provisioned ones", deleted, over)
	}
	// Still recoverable, and trimmed metadata propagates.
	got, err := a.Get(ctxT(t), "file.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("content lost after trim")
	}
	b, fb := r.device(t, "beta")
	syncOK(t, b)
	if got, err := fb.ReadFile("file.bin"); err != nil || !bytes.Equal(got, []byte(content)) {
		t.Fatalf("beta read after trim: %v", err)
	}
	// Idempotent: a second trim removes nothing.
	deleted, err = a.TrimOverProvisioned(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 0 {
		t.Fatalf("second trim deleted %d blocks", deleted)
	}
}

func TestParseBlockName(t *testing.T) {
	tests := []struct {
		name   string
		seg    string
		id     int
		wantOK bool
	}{
		{"abc.7", "abc", 7, true},
		{"a.b.12", "a.b", 12, true},
		{"noindex", "", 0, false},
		{".5", "", 0, false},
		{"seg.", "", 0, false},
		{"seg.x", "", 0, false},
	}
	for _, tt := range tests {
		seg, id, ok := meta.ParseBlockName(tt.name)
		if ok != tt.wantOK || (ok && (seg != tt.seg || id != tt.id)) {
			t.Errorf("parseBlockName(%q) = (%q, %d, %v)", tt.name, seg, id, ok)
		}
	}
}

// A maintenance commit takes the quorum lock, and the lock's refresh
// pulls in whatever other devices committed meanwhile. The commit must
// not move this device's view (v_o) past a file change it has not
// applied: the change would never reach the folder, and a later local
// edit of the same file would overwrite it without a conflict copy.
// (relocate used to setLast the store's head.)
func TestMaintenanceCommitKeepsUnappliedRemoteEdit(t *testing.T) {
	for _, c := range []struct {
		name      string
		localEdit bool
	}{
		{"the next pass applies the remote edit", false},
		{"a local edit made meanwhile ends as a conflict copy", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(5)
			a, fa := r.device(t, "alpha")
			b, fb := r.device(t, "beta")
			writeFile(t, fa, "x.bin", randContent(31, 20_000))
			syncOK(t, a)
			syncOK(t, b)

			theirs := randContent(32, 20_000)
			writeFile(t, fb, "x.bin", theirs)
			syncOK(t, b)

			// alpha has not synced since; its trim really commits, because
			// the uploads above over-provisioned.
			deleted, err := a.TrimOverProvisioned(ctxT(t))
			if err != nil {
				t.Fatal(err)
			}
			if deleted == 0 {
				t.Fatal("nothing was over-provisioned: the trim committed nothing and the test tests nothing")
			}

			ours := randContent(33, 20_000)
			if c.localEdit {
				writeFile(t, fa, "x.bin", ours)
			}
			rep := syncOK(t, a)
			if got, err := fa.ReadFile("x.bin"); err != nil || string(got) != theirs {
				t.Fatalf("alpha's x.bin is not beta's committed edit (err %v)", err)
			}
			if !c.localEdit {
				if rep.CloudChanges != 1 {
					t.Fatalf("the pass after the trim applied %d cloud changes, want 1", rep.CloudChanges)
				}
				return
			}
			if len(rep.Conflicts) != 1 {
				t.Fatalf("conflicts = %v, want alpha's edit retained as one conflict copy", rep.Conflicts)
			}
			if got, err := fa.ReadFile(rep.Conflicts[0]); err != nil || string(got) != ours {
				t.Fatalf("the conflict copy does not hold alpha's edit (err %v)", err)
			}
		})
	}
}

// A trim never takes a segment below its normal placement and never
// trims a thin one. Under quota exhaustion (the set-up of
// TestChaosQuotaExhaustionSoak's phases A and B) segments commit thin
// with two blocks on each of the two clouds with space; cutting each
// cloud to its fair share would leave them two blocks, below K.
func TestTrimSparesThinSegments(t *testing.T) {
	r := newRig(5)
	a, fa, _, _, _ := r.quotaDevice(t, "alpha", 71)
	writeFile(t, fa, "base/report.txt", randContent(50, 9_000))
	writeFile(t, fa, "base/data.bin", randContent(51, 5_000))
	syncChaos(t, a)

	r.stores[1].SetQuota(1)
	for _, i := range []int{2, 3} {
		f := r.flaky["alpha"][i]
		f.AddQuotaWindow(f.Ops(), f.Ops()+12)
	}
	writeFile(t, fa, "burst/big.bin", randContent(52, 10_000))
	writeFile(t, fa, "burst/note.txt", randContent(53, 2_000))
	committed := false
	for attempt := 0; attempt < 5 && !committed; attempt++ {
		_, err := a.SyncOnce(ctxT(t))
		committed = err == nil
	}
	if !committed {
		t.Fatal("alpha never committed under quota exhaustion")
	}
	r.stores[1].SetQuota(0)
	settle(t, a)    // the thin commit's batch ends in its hold's tail
	syncChaos(t, a) // records what the thin commit owed, if anything

	before := a.Image()
	thin := 0
	for _, seg := range before.AllSegments() {
		if seg.Thin {
			thin++
		}
	}
	if thin == 0 {
		t.Fatal("no thin segments: the test tests nothing")
	}
	if _, err := a.TrimOverProvisioned(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	after := a.Image()
	for id, seg := range before.AllSegments() {
		now, _ := after.Segment(id)
		switch {
		case seg.Thin && len(now.Blocks) != len(seg.Blocks):
			t.Errorf("thin segment %s trimmed from %d to %d blocks", id, len(seg.Blocks), len(now.Blocks))
		case !seg.Thin && len(now.Blocks) < min(len(seg.Blocks), a.normalTarget(seg)):
			t.Errorf("segment %s trimmed from %d to %d blocks, below its normal placement", id, len(seg.Blocks), len(now.Blocks))
		}
	}
	b, fb := r.device(t, "beta")
	syncChaos(t, b)
	requireFolders(t, userFiles(t, fa), map[string]*localfs.Mem{"beta": fb})
	auditBlocks(t, r, after)
}
