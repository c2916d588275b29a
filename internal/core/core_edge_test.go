package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/localfs"
)

func TestSyncFailsWithoutQuorumAndRequeues(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "file.txt", "content")

	// Majority of clouds down: commit must fail...
	for i := 0; i < 3; i++ {
		r.flaky["alpha"][i].SetDown(true)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := a.SyncOnce(ctx); err == nil {
		t.Fatal("sync succeeded without a quorum")
	}
	// ...and the change must be requeued, so recovery syncs it.
	for i := 0; i < 3; i++ {
		r.flaky["alpha"][i].SetDown(false)
	}
	rep := syncOK(t, a)
	if rep.LocalChanges != 1 {
		t.Fatalf("LocalChanges after recovery = %d, want 1", rep.LocalChanges)
	}
	b, fb := r.device(t, "beta")
	syncOK(t, b)
	if got, err := fb.ReadFile("file.txt"); err != nil || string(got) != "content" {
		t.Fatalf("beta read %q, %v", got, err)
	}
}

func TestWrongPassphraseCannotReadMetadata(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "secret.txt", "for the right key only")
	syncOK(t, a)

	folder := localfs.NewMem()
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	intruder, err := New(clouds, folder, Config{
		Device: "intruder", Passphrase: "WRONG", Theta: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := intruder.SyncOnce(ctx); err == nil {
		if _, rerr := folder.ReadFile("secret.txt"); rerr == nil {
			t.Fatal("wrong passphrase read the folder contents")
		}
	}
}

func TestQuotaExhaustionOnSomeCloudsStillSyncs(t *testing.T) {
	// Two clouds with tiny quotas: uploads there fail permanently,
	// but the other three satisfy availability and the quorum.
	r := newRig(5)
	stores := []*cloudsim.Store{
		cloudsim.NewStore("c0", 64), cloudsim.NewStore("c1", 64),
		cloudsim.NewStore("c2", 0), cloudsim.NewStore("c3", 0), cloudsim.NewStore("c4", 0),
	}
	r.stores = stores
	a, fa := r.device(t, "alpha")
	content := randContent(77, 6000)
	writeFile(t, fa, "big.bin", content)
	syncOK(t, a)
	b, fb := r.device(t, "beta")
	syncOK(t, b)
	got, err := fb.ReadFile("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("content corrupted with quota-limited clouds")
	}
}

func TestMultiSegmentFileIntegrityProperty(t *testing.T) {
	// Property: any file, any size, survives the full
	// chunk-code-upload-download-decode-assemble pipeline bit-exactly.
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")
	f := func(seed int64, sizeRaw uint16) bool {
		size := int(sizeRaw) // 0..65535 spans sub-θ to many-segment
		name := fmt.Sprintf("prop/f-%d-%d.bin", seed, size)
		content := randContent(seed, size)
		if err := fa.WriteFile(name, []byte(content), time.Now()); err != nil {
			return false
		}
		if _, err := a.SyncOnce(ctxT(t)); err != nil {
			return false
		}
		if _, err := b.SyncOnce(ctxT(t)); err != nil {
			return false
		}
		got, err := fb.ReadFile(name)
		if err != nil {
			return false
		}
		return bytes.Equal(got, []byte(content))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestDeleteThenRecreateSameContent(t *testing.T) {
	// Deleting a file GCs its blocks; re-adding identical content
	// later must re-upload (the reconcile path verifies dedup
	// assumptions against the fetched pool).
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	content := randContent(5, 5000)
	writeFile(t, fa, "cycle.bin", content)
	syncOK(t, a)
	if err := fa.Remove("cycle.bin"); err != nil {
		t.Fatal(err)
	}
	syncOK(t, a) // GC runs
	writeFile(t, fa, "cycle.bin", content)
	syncOK(t, a)
	got, err := a.Get(ctxT(t), "cycle.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("recreated content unreadable after GC cycle")
	}
}

func TestEmptyFileSyncs(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")
	writeFile(t, fa, "empty.txt", "")
	syncOK(t, a)
	syncOK(t, b)
	got, err := fb.ReadFile("empty.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file has %d bytes on beta", len(got))
	}
}

func TestManySmallFilesOneSync(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")
	const n = 40
	for i := 0; i < n; i++ {
		writeFile(t, fa, fmt.Sprintf("batch/f%02d.txt", i), randContent(int64(i), 300))
	}
	rep := syncOK(t, a)
	if rep.LocalChanges != n {
		t.Fatalf("LocalChanges = %d, want %d", rep.LocalChanges, n)
	}
	rep = syncOK(t, b)
	if rep.CloudChanges != n {
		t.Fatalf("CloudChanges = %d, want %d", rep.CloudChanges, n)
	}
	infos, _ := fb.ListAll()
	userFiles := 0
	for _, fi := range infos {
		if !strings.HasPrefix(fi.Path, localfs.StatePrefix) {
			userFiles++
		}
	}
	if userFiles != n {
		t.Fatalf("beta has %d user files, want %d", userFiles, n)
	}
}

func TestAvailableDurationReported(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "f.bin", randContent(1, 9000))
	rep := syncOK(t, a)
	if rep.AvailableDuration <= 0 {
		t.Fatal("AvailableDuration not reported for a committing sync")
	}
	rep = syncOK(t, a) // idle
	if rep.AvailableDuration != 0 {
		t.Fatal("idle sync reported an AvailableDuration")
	}
}

func TestRelocateCommitRecordsReliabilityPlacements(t *testing.T) {
	// After the reliability phase, every live cloud must appear in
	// the committed placement with at least its fair share.
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "file.bin", randContent(9, 8000))
	syncOK(t, a)
	recordPlacements(t, a)
	img := a.Image()
	params := a.Params()
	for id, seg := range img.AllSegments() {
		perCloud := map[string]int{}
		for _, b := range seg.Blocks {
			perCloud[b.CloudID]++
		}
		for _, st := range r.stores {
			if perCloud[st.Name()] < params.FairShare() {
				t.Fatalf("segment %s: cloud %s has %d < fair share %d in committed metadata",
					id, st.Name(), perCloud[st.Name()], params.FairShare())
			}
			if perCloud[st.Name()] > params.MaxPerCloud() {
				t.Fatalf("segment %s: cloud %s exceeds the security cap", id, st.Name())
			}
		}
	}
}
