package deltasync

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
)

// imagesEqual compares the parts of two images that sync correctness
// depends on.
func imagesEqual(a, b *meta.Image) bool {
	if a.Version != b.Version || a.Device != b.Device ||
		a.NumFiles() != b.NumFiles() || a.NumSegments() != b.NumSegments() {
		return false
	}
	for p := range a.AllFiles() {
		sa, sb := a.Lookup(p).Current(), b.Lookup(p).Current()
		if (sa == nil) != (sb == nil) {
			return false
		}
		if sa != nil && !sa.ContentEquals(sb) {
			return false
		}
	}
	for id := range a.AllSegments() {
		if _, ok := b.Segment(id); !ok {
			return false
		}
	}
	return true
}

func TestRefreshNoopWhenNothingPending(t *testing.T) {
	r := newRig(3)
	s := r.store(t, "d1", Config{})
	if _, err := s.Commit(context.Background(), []*meta.Change{addChange("a.txt", "s1")}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.cfg.Obs = reg
	img, err := s.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if img.Version != 1 {
		t.Fatalf("version = %d, want 1", img.Version)
	}
	if n := reg.Counter("deltasync.refresh.noop").Value(); n != 1 {
		t.Errorf("noop counter = %d, want 1", n)
	}
	if n := reg.Counter("deltasync.refresh.full").Value(); n != 0 {
		t.Errorf("full counter = %d, want 0", n)
	}
}

func TestRefreshIncrementalSkipsBaseDownload(t *testing.T) {
	r := newRig(3)
	writer := r.store(t, "dW", Config{})
	// Establish a shared base: commit once, then rotate so every cloud
	// holds a non-trivial base file.
	if _, err := writer.Commit(context.Background(), []*meta.Change{addChange("a.txt", "s1")}); err != nil {
		t.Fatal(err)
	}

	// Reader adopts the current state, then the writer commits more.
	reg := obs.NewRegistry()
	recorders := make([]*cloudsim.Recorder, len(r.stores))
	clouds := make([]cloud.Interface, len(r.stores))
	for i, st := range r.stores {
		recorders[i] = cloudsim.NewRecorder(cloudsim.NewDirect(st))
		clouds[i] = recorders[i]
	}
	reader := New(clouds, testCipher(t), Config{Device: "dR", Obs: reg})
	if _, err := reader.fetchAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i := 2; i <= 3; i++ {
		if _, err := writer.Commit(context.Background(), []*meta.Change{
			addChange(fmt.Sprintf("f%d.txt", i), fmt.Sprintf("s%d", i))}); err != nil {
			t.Fatal(err)
		}
	}

	// Reset byte counters, then refresh: only version + delta files may
	// move, never the base.
	var beforeBase int
	for _, rec := range recorders {
		for _, p := range rec.UploadedPaths() {
			_ = p
		}
		beforeBase += int(rec.PrefixUploadBytes("")) // uploads: none expected anyway
	}
	img, err := reader.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if img.Version != 3 {
		t.Fatalf("refreshed version = %d, want 3", img.Version)
	}
	if img.Lookup("f3.txt").Current() == nil {
		t.Fatal("refresh missed committed file")
	}
	if n := reg.Counter("deltasync.refresh.incremental").Value(); n != 1 {
		t.Errorf("incremental counter = %d, want 1", n)
	}
	if n := reg.Counter("deltasync.refresh.full").Value(); n != 0 {
		t.Errorf("full counter = %d, want 0", n)
	}
	// Equivalence: a fresh full fetch on another store sees the same image.
	other := r.store(t, "dX", Config{})
	full, err := other.fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(img, full) {
		t.Error("incremental refresh diverged from full fetch")
	}
}

func TestRefreshFallsBackToFullAfterRotation(t *testing.T) {
	r := newRig(3)
	// Tiny λ floor: every commit rotates the base.
	writer := r.store(t, "dW", Config{})
	writer.lambda = func(int) int { return 1 }
	if _, err := writer.Commit(context.Background(), []*meta.Change{addChange("a.txt", "s1")}); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	reader := r.store(t, "dR", Config{Obs: reg})
	if _, err := reader.fetchAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Commit(context.Background(), []*meta.Change{addChange("b.txt", "s2")}); err != nil {
		t.Fatal(err)
	}

	img, err := reader.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if img.Version != 2 || img.Lookup("b.txt").Current() == nil {
		t.Fatalf("refresh after rotation: version %d", img.Version)
	}
	if n := reg.Counter("deltasync.refresh.full").Value(); n != 1 {
		t.Errorf("full counter = %d, want 1", n)
	}
	if n := reg.Counter("deltasync.refresh.incremental").Value(); n != 0 {
		t.Errorf("incremental counter = %d, want 0", n)
	}
}

// A chunk of the reader's lineage that outlives the rotation (the
// delete is best effort) extends a reader standing inside it — but only
// to the chunk's end, short of the stamp the cloud advertises. That is
// not a catch-up: counted as one, the reader's next commit would repair
// every cloud back to the chunk's end and lose the commits after it.
func TestRefreshStoppingShortOfTheStampTakesTheFullPath(t *testing.T) {
	for _, tc := range []struct {
		name        string
		commitAfter bool // a record of the new lineage in the tail, or an empty tail
	}{
		{"new-lineage tail", true},
		{"empty tail", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			r := newRig(3)
			w := chunkedWriter(t, r)
			first := w.Stamp().Version + 1
			appendBatch(t, r, w)
			reg := obs.NewRegistry()
			reader := r.store(t, "dR", Config{Obs: reg})
			if _, err := reader.fetchAll(ctx); err != nil {
				t.Fatal(err)
			}
			appendUntilFreeze(t, r, w)
			stale := download(t, r.stores[0], chunkName(first))
			if end := w.Stamp().Version; reader.Stamp().Version < first || reader.Stamp().Version >= end {
				t.Fatalf("reader at v%d does not stand inside the chunk v%d..v%d", reader.Stamp().Version, first, end)
			}
			for rotated := false; !rotated; {
				stats, err := w.Commit(ctx, batch(fmt.Sprintf("r%d", w.Stamp().Version), 40))
				if err != nil {
					t.Fatal(err)
				}
				rotated = stats.BaseRotated
			}
			for _, st := range r.stores {
				upload(t, st, chunkName(first), stale)
			}
			if tc.commitAfter {
				if _, err := w.Commit(ctx, batch("after", 1)); err != nil {
					t.Fatal(err)
				}
			}

			committed := w.Stamp().Version
			img, err := reader.Refresh(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantSameImage(t, "reader inside the surviving chunk", img, w.CachedShared())
			if inc, full := reg.Counter("deltasync.refresh.incremental").Value(), reg.Counter("deltasync.refresh.full").Value(); inc != 0 || full != 1 {
				t.Errorf("refresh counters: incremental %d, full %d; want 0, 1", inc, full)
			}
			// The reader's commit lands on top of the writer's, for everyone.
			if _, err := reader.Commit(ctx, batch("reader", 1)); err != nil {
				t.Fatal(err)
			}
			if img, err = w.Refresh(ctx); err != nil {
				t.Fatal(err)
			}
			wantSameImage(t, "writer after the reader's commit", img, reader.CachedShared())
			if img.Version != committed+1 || img.Lookup("dir/reader-0000.dat").Current() == nil {
				t.Errorf("reader's commit is v%d, want v%d on top of the writer's v%d", img.Version, committed+1, committed)
			}
		})
	}
}

func TestCachedSharedMatchesCached(t *testing.T) {
	r := newRig(3)
	s := r.store(t, "d1", Config{})
	if _, err := s.Commit(context.Background(), []*meta.Change{addChange("a.txt", "s1")}); err != nil {
		t.Fatal(err)
	}
	shared := s.CachedShared()
	clone := s.CachedShared().Clone()
	if !imagesEqual(shared, clone) {
		t.Fatal("CachedShared and its clone disagree")
	}
	// The shared image must survive a subsequent commit unmutated.
	if _, err := s.Commit(context.Background(), []*meta.Change{addChange("b.txt", "s2")}); err != nil {
		t.Fatal(err)
	}
	if shared.Version != 1 || shared.Lookup("b.txt").Current() != nil {
		t.Error("held shared image was mutated by a later commit")
	}
	if s.CachedShared().Version != 2 {
		t.Error("CachedShared not updated after commit")
	}
}

func TestLazyBaseSkipsEncodeUntilRotation(t *testing.T) {
	r := newRig(3)
	lazy := r.store(t, "dL", Config{})
	lazy.lambda = func(baseLen int) int { return max(baseLen/4, 1024) }

	stats, err := lazy.Commit(context.Background(), []*meta.Change{addChange("a.txt", "s1")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BaseRotated {
		t.Fatal("first small commit unexpectedly rotated")
	}
	if stats.BaseBytes != 0 {
		t.Errorf("lazy non-rotating commit encoded a base (%d bytes)", stats.BaseBytes)
	}
	// No cloud should hold a base file yet (genesis, no repair needed).
	for _, st := range r.stores {
		if _, err := cloudsim.NewDirect(st).Download(context.Background(), DefaultDir+"/base"); err == nil {
			t.Fatal("lazy commit uploaded a base file")
		}
	}

	// Push the delta past λ's floor so a later commit rotates.
	pad := strings.Repeat("x", 64)
	for i := 0; i < 12; i++ {
		c := addChange(fmt.Sprintf("pad%02d-%s.txt", i, pad), fmt.Sprintf("sp%d", i))
		if _, err := lazy.Commit(context.Background(), []*meta.Change{c}); err != nil {
			t.Fatal(err)
		}
	}
	// By now the accumulated delta must have crossed λ and rotated.
	rotated := false
	for _, st := range r.stores {
		if _, err := cloudsim.NewDirect(st).Download(context.Background(), DefaultDir+"/base"); err == nil {
			rotated = true
		}
	}
	if !rotated {
		t.Fatal("delta never rotated into a base under LazyBase")
	}

	// Cross-device equivalence: a plain reader fetches the same state.
	reader := r.store(t, "dR", Config{})
	img, err := reader.fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(img, lazy.CachedShared()) {
		t.Error("reader's fetched image diverges from lazy writer's cache")
	}
}

func TestLazyBaseRepairsStaleCloud(t *testing.T) {
	r := newRig(3)
	lazy := r.store(t, "dL", Config{})
	if _, err := lazy.Commit(context.Background(), []*meta.Change{addChange("a.txt", "s1")}); err != nil {
		t.Fatal(err)
	}
	// Cloud 2 misses the next commit.
	r.flaky[2].SetDown(true)
	if _, err := lazy.Commit(context.Background(), []*meta.Change{addChange("b.txt", "s2")}); err != nil {
		t.Fatal(err)
	}
	r.flaky[2].SetDown(false)
	// The next commit must repair cloud 2 with a full base, which under
	// LazyBase forces the deferred encode.
	if _, err := lazy.Commit(context.Background(), []*meta.Change{addChange("c.txt", "s3")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cloudsim.NewDirect(r.stores[2]).Download(context.Background(), DefaultDir+"/base"); err != nil {
		t.Fatalf("stale cloud not repaired with a base: %v", err)
	}
	// A reader served only by the repaired cloud sees everything.
	only2 := New([]cloud.Interface{cloudsim.NewDirect(r.stores[2])}, testCipher(t), Config{Device: "dR"})
	img, err := only2.fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a.txt", "b.txt", "c.txt"} {
		if img.Lookup(p).Current() == nil {
			t.Errorf("repaired cloud missing %s", p)
		}
	}
}

func TestRefreshIncrementalDownloadsNoBase(t *testing.T) {
	r := newRig(3)
	writer := r.store(t, "dW", Config{})
	if _, err := writer.Commit(context.Background(), []*meta.Change{addChange("a.txt", "s1")}); err != nil {
		t.Fatal(err)
	}

	recorders := make([]*cloudsim.Recorder, len(r.stores))
	clouds := make([]cloud.Interface, len(r.stores))
	for i, st := range r.stores {
		recorders[i] = cloudsim.NewRecorder(cloudsim.NewDirect(st))
		clouds[i] = recorders[i]
	}
	reader := New(clouds, testCipher(t), Config{Device: "dR"})
	if _, err := reader.fetchAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	baseDownloadsAfterFetch := totalDownloads(recorders)

	if _, err := writer.Commit(context.Background(), []*meta.Change{addChange("b.txt", "s2")}); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The incremental refresh polls the version stamps once — the same
	// answers find the update and rank the clouds — and downloads one
	// delta; the base files must not move again.
	if grew := totalDownloads(recorders) - baseDownloadsAfterFetch; grew != 4 {
		t.Errorf("incremental refresh made %d downloads, want 4 (3 stamps + 1 delta)", grew)
	}
}

func totalDownloads(recorders []*cloudsim.Recorder) int {
	n := 0
	for _, r := range recorders {
		n += r.Counts().Download
	}
	return n
}
