package core

import (
	"bytes"
	"context"
	"testing"

	"unidrive/internal/cloudsim"
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

func TestFsckReportsAtRiskSegments(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "checked.bin", randContent(23, 4000))
	syncOK(t, a)

	rep, err := a.Fsck(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AtRisk) != 0 {
		t.Fatalf("healthy store reported at-risk segments: %v", rep.AtRisk)
	}
	if len(rep.UnknownClouds) != 0 {
		t.Fatalf("healthy store reported unknown clouds: %v", rep.UnknownClouds)
	}
	// Destroy blocks behind UniDrive's back on four clouds: fewer
	// than K=3 blocks remain per segment.
	ctx := context.Background()
	for _, st := range r.stores[:4] {
		if err := cloudsim.NewDirect(st).Delete(ctx, ".unidrive/blocks"); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = a.Fsck(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AtRisk) == 0 {
		t.Fatal("Fsck missed segments below the recovery threshold")
	}
}

func TestFsckTreatsListFailureAsUnknown(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "checked.bin", randContent(29, 4000))
	syncOK(t, a)

	// Take three clouds fully down: their listings fail. A naive Fsck
	// would presume their blocks gone and cry wolf on every segment; a
	// conservative one reports the clouds as unknown instead.
	for _, fl := range r.flaky["alpha"][:3] {
		fl.SetDown(true)
	}
	defer func() {
		for _, fl := range r.flaky["alpha"][:3] {
			fl.SetDown(false)
		}
	}()
	rep, err := a.Fsck(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AtRisk) != 0 {
		t.Fatalf("unreachable clouds reported as data loss: %v", rep.AtRisk)
	}
	if len(rep.UnknownClouds) != 3 {
		t.Fatalf("UnknownClouds = %v, want the 3 downed clouds", rep.UnknownClouds)
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
