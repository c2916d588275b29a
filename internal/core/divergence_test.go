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
