package deltasync

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/meta"
	"unidrive/internal/metacrypt"
)

func testCipher(t *testing.T) *metacrypt.Cipher {
	t.Helper()
	c, err := metacrypt.New(metacrypt.DES, "test-passphrase")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rig bundles a metadata store with its backing clouds.
type rig struct {
	stores []*cloudsim.Store
	flaky  []*cloudsim.Flaky
	clouds []cloud.Interface
}

func newRig(n int) *rig {
	r := &rig{}
	for i := 0; i < n; i++ {
		st := cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)
		fl := cloudsim.NewFlaky(cloudsim.NewDirect(st), 0, int64(i+1))
		r.stores = append(r.stores, st)
		r.flaky = append(r.flaky, fl)
		r.clouds = append(r.clouds, fl)
	}
	return r
}

func (r *rig) store(t *testing.T, device string, cfg Config) *Store {
	t.Helper()
	cfg.Device = device
	return New(r.clouds, testCipher(t), cfg)
}

// atStamp returns the clouds whose version file names the commit s
// stands at: those its commits reached.
func (r *rig) atStamp(t *testing.T, s *Store) []int {
	t.Helper()
	var out []int
	for i, st := range r.stores {
		data, err := cloudsim.NewDirect(st).Download(context.Background(), DefaultDir+"/"+versionFile)
		if err != nil {
			continue
		}
		if stamp, err := meta.DecodeVersionStamp(data); err == nil && stamp == s.Stamp() {
			out = append(out, i)
		}
	}
	if len(out) < s.Quorum() {
		t.Fatalf("v%d stands on clouds %v, fewer than a quorum", s.Stamp().Version, out)
	}
	return out
}

// pinnedStore is a store over the rig's clouds that writes the same
// quorum every time: the first Quorum() clouds, since the others'
// version-file reads hang until the test ends.
func (r *rig) pinnedStore(t *testing.T, device string, cfg Config) *Store {
	t.Helper()
	var hung []int
	for i := cloud.Quorum(len(r.clouds)); i < len(r.clouds); i++ {
		hung = append(hung, i)
	}
	s, _, _ := r.gatedStore(t, device, cfg, hung...)
	return s
}

func addChange(path, segID string) *meta.Change {
	return &meta.Change{
		Type: meta.ChangeAdd,
		Path: path,
		Snapshot: &meta.Snapshot{
			Path: path, Size: 100, Device: "dev",
			ModTime: time.Unix(1, 0), SegmentIDs: []string{segID},
		},
		Segments: []*meta.Segment{{ID: segID, Length: 100, K: 3, N: 10}},
		Time:     time.Unix(1, 0),
	}
}

func TestCommitAndFetchRoundTrip(t *testing.T) {
	r := newRig(5)
	s1 := r.store(t, "d1", Config{})
	stats, err := s1.Commit(context.Background(), []*meta.Change{addChange("a.txt", "s1")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Version != 1 || stats.CloudsOK != s1.Quorum() {
		t.Fatalf("stats = %+v", stats)
	}
	// A different device fetches and sees the file.
	s2 := r.store(t, "d2", Config{})
	img, err := s2.fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if img.Version != 1 {
		t.Fatalf("fetched version %d, want 1", img.Version)
	}
	if img.Lookup("a.txt").Current() == nil {
		t.Fatal("fetched image missing committed file")
	}
	if _, ok := img.Segment("s1"); !ok {
		t.Fatal("fetched image missing segment pool entry")
	}
}

func TestVersionsIncrementAcrossCommits(t *testing.T) {
	r := newRig(3)
	s := r.store(t, "d1", Config{})
	for i := 1; i <= 4; i++ {
		stats, err := s.Commit(context.Background(), []*meta.Change{
			addChange(fmt.Sprintf("f%d", i), fmt.Sprintf("s%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Version != int64(i) {
			t.Fatalf("commit %d got version %d", i, stats.Version)
		}
	}
	if st := s.Stamp(); st.Version != 4 || st.Device != "d1" {
		t.Fatalf("stamp = %+v", st)
	}
}

func TestCheckRemoteDetectsPendingUpdate(t *testing.T) {
	r := newRig(3)
	s1 := r.store(t, "d1", Config{})
	s2 := r.store(t, "d2", Config{})

	pending, _, err := s2.checkRemote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pending {
		t.Fatal("pending update reported on empty clouds")
	}
	if _, err := s1.Commit(context.Background(), []*meta.Change{addChange("a", "s1")}); err != nil {
		t.Fatal(err)
	}
	pending, _, err = s2.checkRemote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !pending {
		t.Fatal("pending update not detected after commit")
	}
	if _, err := s2.fetchAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	pending, _, err = s2.checkRemote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pending {
		t.Fatal("pending still reported after fetch")
	}
}

func TestCheckRemoteIsCheap(t *testing.T) {
	// The whole point of the version file: a no-change check must not
	// download base or delta.
	r := newRig(3)
	s1 := r.store(t, "d1", Config{})
	if _, err := s1.Commit(context.Background(), []*meta.Change{addChange("a", "s1")}); err != nil {
		t.Fatal(err)
	}
	rec := cloudsim.NewRecorder(cloudsim.NewDirect(r.stores[0]))
	probe := New([]cloud.Interface{rec}, testCipher(t), Config{Device: "dX"})
	if _, err := probe.fetchAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := rec.Counts().Download
	for i := 0; i < 5; i++ {
		pending, _, err := probe.checkRemote(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if pending {
			t.Fatal("spurious pending")
		}
	}
	// 5 checks = 5 version-file downloads, nothing else.
	if got := rec.Counts().Download - before; got != 5 {
		t.Fatalf("CheckRemote used %d downloads for 5 checks, want 5", got)
	}
}

func TestDeltaAccumulatesThenRotates(t *testing.T) {
	r := newRig(3)
	// Tiny λ floor so rotation happens quickly.
	s := r.store(t, "d1", Config{})
	s.lambda = func(int) int { return 1500 }
	var rotated, appended int
	for i := 0; i < 12; i++ {
		stats, err := s.Commit(context.Background(), []*meta.Change{
			addChange(fmt.Sprintf("file-%02d", i), fmt.Sprintf("seg-%02d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if stats.BaseRotated {
			rotated++
		} else {
			appended++
		}
	}
	if rotated == 0 {
		t.Fatal("delta never merged into base")
	}
	if appended == 0 {
		t.Fatal("every commit rotated the base; delta-sync inert")
	}
	// State after mixed commits is still correct for a new device.
	img, err := r.store(t, "d2", Config{}).fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(img.Paths()); got != 12 {
		t.Fatalf("fetched %d files, want 12", got)
	}
	if img.Version != 12 {
		t.Fatalf("fetched version %d, want 12", img.Version)
	}
}

func TestDeltaTrafficSmallerThanFullImage(t *testing.T) {
	// Fig 13's claim: with Delta-sync, cumulative metadata traffic is
	// far below uploading the full image on every commit (the paper
	// measured a 13.1× reduction over 1024 file updates).
	r := newRig(3)
	s := r.store(t, "d1", Config{})
	var withDelta, withoutDelta int64
	for i := 0; i < 100; i++ {
		stats, err := s.Commit(context.Background(), []*meta.Change{
			addChange(fmt.Sprintf("dir/file-%03d.dat", i), fmt.Sprintf("segment-%03d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if stats.BaseRotated {
			withDelta += int64(stats.BaseBytes)
		} else {
			withDelta += int64(stats.DeltaBytes)
		}
		// Without Delta-sync every commit uploads the whole sealed image.
		plain, err := s.CachedShared().Encode()
		if err != nil {
			t.Fatal(err)
		}
		full, err := s.cipher.Seal(plain)
		if err != nil {
			t.Fatal(err)
		}
		withoutDelta += int64(len(full))
	}
	if withDelta*2 >= withoutDelta {
		t.Fatalf("delta-sync traffic %dB not substantially below full-image traffic %dB",
			withDelta, withoutDelta)
	}
}

func TestCommitQuorumFailure(t *testing.T) {
	r := newRig(5)
	for i := 0; i < 3; i++ {
		r.flaky[i].SetDown(true)
	}
	s := r.store(t, "d1", Config{})
	_, err := s.Commit(context.Background(), []*meta.Change{addChange("a", "s1")})
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestStaleCloudRepairedOnNextCommit(t *testing.T) {
	r := newRig(3)
	s := r.store(t, "d1", Config{})
	// First commit reaches all.
	if _, err := s.Commit(context.Background(), []*meta.Change{addChange("a", "s1")}); err != nil {
		t.Fatal(err)
	}
	// Cloud 0 misses the second commit.
	r.flaky[0].SetDown(true)
	if _, err := s.Commit(context.Background(), []*meta.Change{addChange("b", "s2")}); err != nil {
		t.Fatal(err)
	}
	// Cloud 0 recovers and cloud 1 goes down: the third commit's quorum
	// holds cloud 0, which it must catch up.
	r.flaky[0].SetDown(false)
	r.flaky[1].SetDown(true)
	if _, err := s.Commit(context.Background(), []*meta.Change{addChange("c", "s3")}); err != nil {
		t.Fatal(err)
	}
	r.flaky[1].SetDown(false)
	// A reader that can only see cloud 0 must observe all three files.
	only0 := New([]cloud.Interface{cloudsim.NewDirect(r.stores[0])}, testCipher(t), Config{Device: "dR"})
	img, err := only0.fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(img.Paths()); got != 3 {
		t.Fatalf("repaired cloud has %d files, want 3 (paths %v)", got, img.Paths())
	}
	if img.Version != 3 {
		t.Fatalf("repaired cloud at version %d, want 3", img.Version)
	}
}

func TestFetchPrefersNewestCloud(t *testing.T) {
	r := newRig(3)
	s := r.store(t, "d1", Config{})
	if _, err := s.Commit(context.Background(), []*meta.Change{addChange("a", "s1")}); err != nil {
		t.Fatal(err)
	}
	r.flaky[2].SetDown(true) // cloud 2 stays at version 1
	if _, err := s.Commit(context.Background(), []*meta.Change{addChange("b", "s2")}); err != nil {
		t.Fatal(err)
	}
	r.flaky[2].SetDown(false)

	img, err := r.store(t, "d2", Config{}).fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if img.Version != 2 {
		t.Fatalf("fetch adopted stale cloud: version %d, want 2", img.Version)
	}
}

func TestFetchAllCloudsDown(t *testing.T) {
	r := newRig(3)
	for _, f := range r.flaky {
		f.SetDown(true)
	}
	if _, err := r.store(t, "d1", Config{}).fetchAll(context.Background()); err == nil {
		t.Fatal("fetch succeeded with all clouds down")
	}
}

func TestCheckRemoteAllCloudsDown(t *testing.T) {
	r := newRig(3)
	for _, f := range r.flaky {
		f.SetDown(true)
	}
	if _, _, err := r.store(t, "d1", Config{}).checkRemote(context.Background()); err == nil {
		t.Fatal("version check succeeded with all clouds down")
	}
}

func TestCommitRejectsInvalidChange(t *testing.T) {
	r := newRig(3)
	s := r.store(t, "d1", Config{})
	_, err := s.Commit(context.Background(), []*meta.Change{{Type: meta.ChangeAdd, Path: ""}})
	if err == nil {
		t.Fatal("invalid change committed")
	}
}

func TestMetadataEncryptedAtRest(t *testing.T) {
	r := newRig(3)
	s := r.store(t, "d1", Config{})
	if _, err := s.Commit(context.Background(), []*meta.Change{addChange("secret-name.txt", "s1")}); err != nil {
		t.Fatal(err)
	}
	raw := cloudsim.NewDirect(r.stores[0])
	for _, f := range []string{baseFile, deltaFile} {
		data, err := raw.Download(context.Background(), DefaultDir+"/"+f)
		if err != nil {
			if errors.Is(err, cloud.ErrNotFound) {
				continue
			}
			t.Fatal(err)
		}
		if containsSubstring(data, "secret-name") {
			t.Fatalf("%s stored with plaintext file names", f)
		}
	}
}

func containsSubstring(data []byte, s string) bool {
	for i := 0; i+len(s) <= len(data); i++ {
		if string(data[i:i+len(s)]) == s {
			return true
		}
	}
	return false
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with no clouds did not panic")
		}
	}()
	New(nil, testCipher(t), Config{Device: "d"})
}

func TestConcurrentDevicesSerializedCommits(t *testing.T) {
	// Two stores committing in turn (as the quorum lock enforces);
	// each must fetch before committing to chain versions correctly.
	r := newRig(3)
	s1 := r.store(t, "d1", Config{})
	s2 := r.store(t, "d2", Config{})
	if _, err := s1.Commit(context.Background(), []*meta.Change{addChange("a", "s1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.fetchAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats, err := s2.Commit(context.Background(), []*meta.Change{addChange("b", "s2")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Version != 2 {
		t.Fatalf("second device committed version %d, want 2", stats.Version)
	}
	img, err := s1.fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Paths()) != 2 || img.Device != "d2" {
		t.Fatalf("final image: %v by %s", img.Paths(), img.Device)
	}
}

// TestRecordsSinceCoversOnlyTheCachedChain pins the coverage rule the
// client's diff and checkpoint rely on: a span inside the cached chain
// yields exactly its records, and a span reaching below the base (a
// rotation dropped those records) or beyond the head is refused, never
// answered partially.
func TestRecordsSinceCoversOnlyTheCachedChain(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	// A huge floor keeps the first three commits in the delta log.
	s := r.store(t, "d1", Config{})
	s.lambda = func(int) int { return 1 << 30 }
	for i := 1; i <= 3; i++ {
		if _, err := s.Commit(ctx, []*meta.Change{addChange(fmt.Sprintf("f%d", i), fmt.Sprintf("s%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	recs, ok := s.RecordsSince(1, 3)
	if !ok || len(recs) != 2 || recs[0].Version != 2 || recs[1].Version != 3 {
		t.Fatalf("RecordsSince(1,3) = %+v, %v", recs, ok)
	}
	if recs, ok := s.RecordsSince(3, 3); !ok || len(recs) != 0 {
		t.Fatalf("empty span = %+v, %v", recs, ok)
	}
	changes, ok := s.ChangesSince(0, 3)
	if !ok || len(changes) != 3 || changes[2].Path != "f3" {
		t.Fatalf("ChangesSince(0,3) = %+v, %v", changes, ok)
	}
	for _, span := range [][2]int64{{0, 4}, {2, 1}} {
		if _, ok := s.RecordsSince(span[0], span[1]); ok {
			t.Errorf("RecordsSince(%d,%d) answered outside the chain", span[0], span[1])
		}
	}

	// A rotation folds the chain into the base: spans from before it are
	// no longer covered, by this store or by one that fetches afterwards.
	rotating := r.store(t, "d2", Config{})
	rotating.lambda = func(int) int { return 1 }
	if _, err := rotating.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err := rotating.Commit(ctx, []*meta.Change{addChange("f4", "s4")})
	if err != nil || !stats.BaseRotated {
		t.Fatalf("rotating commit: %+v, %v", stats, err)
	}
	if _, err := s.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.RecordsSince(3, 4); ok {
		t.Error("RecordsSince answered a span below the rotated base")
	}
	if recs, ok := s.RecordsSince(4, 4); !ok || len(recs) != 0 {
		t.Errorf("RecordsSince(4,4) after rotation = %+v, %v", recs, ok)
	}
}
