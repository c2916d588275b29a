package deltasync

import (
	"context"
	"testing"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/meta"
)

// recordedStore builds a store whose every request to the rig's clouds
// (faults included) passes a Recorder.
func (r *rig) recordedStore(t *testing.T, device string, cfg Config) (*Store, []*cloudsim.Recorder) {
	t.Helper()
	recs := make([]*cloudsim.Recorder, len(r.clouds))
	clouds := make([]cloud.Interface, len(r.clouds))
	for i, c := range r.clouds {
		recs[i] = cloudsim.NewRecorder(c)
		clouds[i] = recs[i]
	}
	cfg.Device = device
	return New(clouds, testCipher(t), cfg), recs
}

// metaCounts sums the requests for one metadata file over all clouds.
func metaCounts(recs []*cloudsim.Recorder, file string) cloudsim.CallCounts {
	var sum cloudsim.CallCounts
	for _, rec := range recs {
		sum = sum.Plus(rec.CountsUnder(DefaultDir + "/" + file))
	}
	return sum
}

// baseUploads snapshots every cloud's count of base-file uploads.
func baseUploads(recs []*cloudsim.Recorder) []int {
	out := make([]int, len(recs))
	for i, rec := range recs {
		out[i] = rec.CountsUnder(DefaultDir + "/" + baseFile).Upload
	}
	return out
}

// wantBaseUploads checks that since the snapshot exactly one cloud —
// repaired — received a base file, once.
func wantBaseUploads(t *testing.T, recs []*cloudsim.Recorder, since []int, repaired int) {
	t.Helper()
	for i, n := range baseUploads(recs) {
		want := 0
		if i == repaired {
			want = 1
		}
		if got := n - since[i]; got != want {
			t.Errorf("cloud %d: %d base uploads, want %d", i, got, want)
		}
	}
}

func commitOne(t *testing.T, s *Store, path, seg string) CommitStats {
	t.Helper()
	stats, err := s.Commit(context.Background(), []*meta.Change{addChange(path, seg)})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// The poll that precedes a Commit under the lock — Refresh's, or
// CheckRemote's — is the only time the version files are read: the
// commit decides up-to-date vs repair from its answers.
func TestPollThenCommitIssuesNoStampGET(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	s, recs := r.recordedStore(t, "d1", Config{})
	commitOne(t, s, "a", "s1")

	for _, poll := range []struct {
		name string
		run  func() error
	}{
		{"Refresh", func() error { _, err := s.Refresh(ctx); return err }},
		{"checkRemote", func() error { _, _, err := s.checkRemote(ctx); return err }},
	} {
		before := metaCounts(recs, versionFile)
		if err := poll.run(); err != nil {
			t.Fatal(err)
		}
		polled := metaCounts(recs, versionFile)
		if got := polled.Download - before.Download; got != 3 {
			t.Fatalf("%s read %d version files, want 3", poll.name, got)
		}
		baseBefore := metaCounts(recs, baseFile).Upload
		stats := commitOne(t, s, "f-"+poll.name, "s-"+poll.name)
		after := metaCounts(recs, versionFile)
		if got := after.Download - polled.Download; got != 0 {
			t.Errorf("Commit after %s read %d version files, want 0", poll.name, got)
		}
		if got := after.Upload - polled.Upload; got != 3 {
			t.Errorf("Commit after %s wrote %d version files, want 3", poll.name, got)
		}
		if got := metaCounts(recs, baseFile).Upload - baseBefore; got != 0 || stats.CloudsOK != 3 {
			t.Errorf("Commit after %s: %d base uploads, %d clouds ok; every cloud was up to date", poll.name, got, stats.CloudsOK)
		}
	}
}

// A Commit that no poll preceded since the previous Commit polls
// itself, and still repairs a cloud left one version behind.
func TestCommitWithoutPollPollsAndRepairs(t *testing.T) {
	r := newRig(3)
	s, recs := r.recordedStore(t, "d1", Config{})
	commitOne(t, s, "a", "s1")
	r.flaky[0].SetDown(true)
	commitOne(t, s, "b", "s2") // cloud 0 stays at v1
	r.flaky[0].SetDown(false)

	before := metaCounts(recs, versionFile)
	bases := baseUploads(recs)
	stats := commitOne(t, s, "c", "s3")
	if got := metaCounts(recs, versionFile).Download - before.Download; got != 3 {
		t.Errorf("unpolled Commit read %d version files, want 3", got)
	}
	if stats.CloudsOK != 3 {
		t.Errorf("commit reached %d clouds, want 3", stats.CloudsOK)
	}
	// Only the stale cloud is rewritten in full.
	wantBaseUploads(t, recs, bases, 0)
	only0 := New([]cloud.Interface{cloudsim.NewDirect(r.stores[0])}, testCipher(t), Config{Device: "dR"})
	img, err := only0.fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if img.Version != 3 || len(img.Paths()) != 3 {
		t.Errorf("repaired cloud serves v%d with %v, want v3 with three files", img.Version, img.Paths())
	}

	// The same repair when the staleness is found by a Refresh instead.
	r.flaky[1].SetDown(true)
	commitOne(t, s, "d", "s4") // cloud 1 stays at v3
	r.flaky[1].SetDown(false)
	if _, err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	before = metaCounts(recs, versionFile)
	bases = baseUploads(recs)
	commitOne(t, s, "e", "s5")
	if got := metaCounts(recs, versionFile).Download - before.Download; got != 0 {
		t.Errorf("polled Commit read %d version files, want 0", got)
	}
	wantBaseUploads(t, recs, bases, 1)
}

// A cloud that did not answer the poll is not known to be up to date:
// it gets the full repair, whatever its version file says.
func TestCloudUnreachableDuringPollIsNotUpToDate(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	s, recs := r.recordedStore(t, "d1", Config{})
	commitOne(t, s, "a", "s1")

	r.flaky[2].SetDown(true)
	if _, err := s.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	r.flaky[2].SetDown(false)
	bases := baseUploads(recs)
	stats := commitOne(t, s, "b", "s2")
	if stats.CloudsOK != 3 {
		t.Errorf("commit reached %d clouds, want 3", stats.CloudsOK)
	}
	wantBaseUploads(t, recs, bases, 2)
}
