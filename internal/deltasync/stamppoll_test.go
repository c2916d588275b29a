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
// repaired — received a base file, once; repaired -1: none did.
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
// commit takes its answers in order and writes the first quorum, a
// cloud behind it caught up by the tail alone.
func TestPollThenCommitIssuesNoStampGET(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	s, recs := r.recordedStore(t, "d1", Config{})
	commitOne(t, s, "a", "s1")
	s.JoinPoll(ctx) // the commit returned at the quorum; its poll's last answer may still be in flight

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
		s.JoinPoll(ctx) // the poll decided at the quorum; its last answer may still be in flight
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
		if got := after.Upload - polled.Upload; got != s.Quorum() {
			t.Errorf("Commit after %s wrote %d version files, want a quorum's %d", poll.name, got, s.Quorum())
		}
		if got := metaCounts(recs, baseFile).Upload - baseBefore; got != 0 || stats.CloudsOK != s.Quorum() {
			t.Errorf("Commit after %s: %d base uploads, %d clouds ok; every cloud stood on the cursor", poll.name, got, stats.CloudsOK)
		}
	}
}

// A Commit that no poll preceded since the previous Commit polls
// itself, and catches up a cloud left one version behind — with the
// tail alone: it stands on the cursor. Cloud 1 is down for the catch-up
// commit, so that the commit's quorum holds the stale cloud.
func TestCommitWithoutPollPollsAndRepairs(t *testing.T) {
	r := newRig(3)
	s, recs := r.recordedStore(t, "d1", Config{})
	commitOne(t, s, "a", "s1")
	r.flaky[0].SetDown(true)
	commitOne(t, s, "b", "s2") // cloud 0 stays at v1
	s.JoinPoll(context.Background())
	r.flaky[0].SetDown(false)

	before := metaCounts(recs, versionFile)
	bases := baseUploads(recs)
	r.flaky[1].SetDown(true)
	stats := commitOne(t, s, "c", "s3")
	s.JoinPoll(context.Background())
	r.flaky[1].SetDown(false)
	if got := metaCounts(recs, versionFile).Download - before.Download; got != 3 {
		t.Errorf("unpolled Commit read %d version files, want 3", got)
	}
	if stats.CloudsOK != 2 {
		t.Errorf("commit reached %d clouds, want 2", stats.CloudsOK)
	}
	wantBaseUploads(t, recs, bases, -1)
	only0 := New([]cloud.Interface{cloudsim.NewDirect(r.stores[0])}, testCipher(t), Config{Device: "dR"})
	img, err := only0.fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if img.Version != 3 || len(img.Paths()) != 3 {
		t.Errorf("caught-up cloud serves v%d with %v, want v3 with three files", img.Version, img.Paths())
	}

	// The same catch-up when the staleness is found by a Refresh instead.
	r.flaky[1].SetDown(true)
	commitOne(t, s, "d", "s4") // cloud 1 stays at v3 or before
	r.flaky[1].SetDown(false)
	if _, err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.JoinPoll(context.Background())
	before = metaCounts(recs, versionFile)
	bases = baseUploads(recs)
	r.flaky[2].SetDown(true)
	commitOne(t, s, "e", "s5")
	r.flaky[2].SetDown(false)
	if got := metaCounts(recs, versionFile).Download - before.Download; got != 0 {
		t.Errorf("polled Commit read %d version files, want 0", got)
	}
	wantBaseUploads(t, recs, bases, -1)
	only1 := New([]cloud.Interface{cloudsim.NewDirect(r.stores[1])}, testCipher(t), Config{Device: "dR"})
	if img, err := only1.fetchAll(context.Background()); err != nil || img.Version != 5 {
		t.Errorf("caught-up cloud serves v%d (%v), want v5", img.Version, err)
	}
}

// A cloud that did not answer the poll is not known to stand anywhere:
// it is written only once every cloud that did answer has been tried,
// and then with the full repair, whatever its version file says.
// Cloud 1 answers the poll and then refuses the write, so that the
// commit widens to cloud 2.
func TestCloudUnreachableDuringPollIsNotUpToDate(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	s, recs := r.recordedStore(t, "d1", Config{})
	commitOne(t, s, "a", "s1")

	r.flaky[2].SetDown(true)
	if _, err := s.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	s.JoinPoll(ctx) // cloud 2's answer, not one it gives once it is back
	r.flaky[2].SetDown(false)
	r.flaky[1].SetDown(true)
	bases := baseUploads(recs)
	stats := commitOne(t, s, "b", "s2")
	if stats.CloudsOK != 2 {
		t.Errorf("commit reached %d clouds, want 2", stats.CloudsOK)
	}
	wantBaseUploads(t, recs, bases, 2)
}
