package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
)

// missingBlockWatch counts the block downloads its cloud answered with
// ErrNotFound: requests for blocks the metadata named but no cloud holds.
type missingBlockWatch struct {
	cloud.Interface
	missing *atomic.Int64
}

func (w missingBlockWatch) Download(ctx context.Context, path string) ([]byte, error) {
	data, err := w.Interface.Download(ctx, path)
	if errors.Is(err, cloud.ErrNotFound) && strings.HasPrefix(path, transfer.DefaultBlockDir+"/") {
		w.missing.Add(1)
	}
	return data, err
}

// A deletes a file — dropping its segments, whose blocks its GC deletes
// — and later commits the same content again, placed differently
// because a cloud is down; all of it behind a rotated base, so a fresh
// device B arrives through the full fetch. B must derive the image A
// holds: every location it knows names a block that exists, and the
// download never asks a cloud for a block that is gone.
func TestFreshDeviceAfterDeleteAndReAddNamesOnlyLiveBlocks(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	for i := 0; i < 40; i++ {
		writeFile(t, fa, fmt.Sprintf("seed/%02d.txt", i), randContent(int64(100+i), 300))
	}
	syncOK(t, a) // 40 files in one commit: past λ's floor, the base rotates
	content := randContent(7, 10_000)
	writeFile(t, fa, "f.bin", content)
	syncOK(t, a)
	if err := fa.Remove("f.bin"); err != nil {
		t.Fatal(err)
	}
	syncOK(t, a)
	r.flaky["alpha"][0].SetDown(true)
	writeFile(t, fa, "g.bin", content)
	syncOK(t, a)
	r.flaky["alpha"][0].SetDown(false)

	var missing atomic.Int64
	clouds := make([]cloud.Interface, len(r.stores))
	for i, st := range r.stores {
		clouds[i] = missingBlockWatch{cloudsim.NewDirect(st), &missing}
	}
	reg := obs.NewRegistry()
	fb := localfs.NewMem()
	b, err := New(clouds, fb, Config{
		Device: "beta", Passphrase: "shared-secret", Theta: 4096,
		LockExpiry: 500 * time.Millisecond, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	syncOK(t, b)
	if n := reg.Counter("deltasync.refresh.full").Value(); n != 1 {
		t.Fatalf("beta's first refresh: full counter = %d, want 1 (the base rotated at v1)", n)
	}
	got, err := fb.ReadFile("g.bin")
	if err != nil || string(got) != content {
		t.Fatalf("beta's g.bin: %d bytes, %v; want alpha's %d", len(got), err, len(content))
	}
	if n := missing.Load(); n != 0 {
		t.Errorf("beta asked the clouds for %d blocks that do not exist", n)
	}

	byName := map[string]*cloudsim.Store{}
	for _, st := range r.stores {
		byName[st.Name()] = st
	}
	img := b.Image()
	for _, segID := range img.SegmentIDs() {
		seg, _ := img.Segment(segID)
		for _, loc := range seg.Blocks {
			path := b.engine.BlockPath(segID, loc.BlockID)
			if _, err := cloudsim.NewDirect(byName[loc.CloudID]).Download(context.Background(), path); err != nil {
				t.Errorf("beta's image places block %d of %.8s on %s: %v", loc.BlockID, segID, loc.CloudID, err)
			}
		}
	}
	want, err := a.Image().Encode()
	if err != nil {
		t.Fatal(err)
	}
	have, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(have) != string(want) {
		t.Error("beta's image does not encode like alpha's")
	}
}

// B applies a file and the user deletes it before any scan has seen it:
// the scanner knows the path only by its pending self-write
// suppression. B's next pass must commit the delete, not leave B's
// folder without a file the image still holds.
func TestDeleteOfAnAppliedFileBeforeAnyScanCommits(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")
	writeFile(t, fa, "kept.txt", "stays everywhere")
	writeFile(t, fa, "x.txt", "applied on beta, deleted there unscanned")
	syncOK(t, a)
	if rep := syncOK(t, b); rep.CloudChanges != 2 {
		t.Fatalf("beta applied %d changes, want 2", rep.CloudChanges)
	}
	if err := fb.Remove("x.txt"); err != nil {
		t.Fatal(err)
	}
	if rep := syncOK(t, b); rep.LocalChanges != 1 {
		t.Fatalf("beta committed %d changes after the delete, want 1", rep.LocalChanges)
	}
	syncOK(t, a)
	want := map[string]string{"kept.txt": "stays everywhere"}
	requireFolders(t, want, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
	if snap := a.Image().Lookup("x.txt").Current(); snap == nil || !snap.Deleted {
		t.Errorf("alpha's image still holds x.txt: %+v", snap)
	}
}

// Alpha deletes f.bin and adds g.bin; beta starts applying that commit
// and is held on g.bin's blocks. Meanwhile alpha restores f.bin with the
// same bytes — the same segment, so the same block names — and commits.
// Beta's apply then finishes on the head it read, which released f.bin's
// segment. Only the pass whose commit released a segment deletes its
// blocks, so beta deletes nothing, and a fresh device reads the restored
// file.
func TestReaderApplyKeepsRestoredBlocks(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	tp := newTap("")
	b, _, _ := r.tappedDevice(t, "beta", tp)
	content := randContent(11, 3000)
	writeFile(t, fa, "f.bin", content)
	syncOK(t, a)
	syncOK(t, b)

	if err := fa.Remove("f.bin"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, fa, "g.bin", randContent(12, 3000))
	syncOK(t, a)

	tp.blockReads.hold()
	done := make(chan error, 1)
	go func() {
		_, err := b.SyncOnce(ctxT(t))
		done <- err
	}()
	await(t, tp.blockAsked, 1, "beta's block reads of g.bin")
	writeFile(t, fa, "f.bin", content)
	syncOK(t, a)
	tp.blockReads.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	g, fg := r.device(t, "gamma")
	syncOK(t, g)
	if got, err := fg.ReadFile("f.bin"); err != nil || string(got) != content {
		t.Fatalf("a fresh device reads f.bin as %d bytes, %v; want alpha's restored %d", len(got), err, len(content))
	}
}
