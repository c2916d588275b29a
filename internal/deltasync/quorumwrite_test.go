package deltasync

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
)

// A stamp names a commit, not a version. A commit that reached only
// clouds 0 and 1 failed; its retry at the same version, with one more
// change, landed on clouds 2 to 4. A reader that hears clouds 0 to 3
// first — two answers for the lost commit, two for the retry — must
// not adopt the lost commit, and the writer's next commit must reach
// that reader, and a fresh one, whole.
func TestLostCommitIsNotAdopted(t *testing.T) {
	ctx := context.Background()
	r := newRig(5)
	w := r.store(t, "dW", Config{})
	commitOne(t, w, "a", "s1")
	w.JoinPoll(ctx)
	setDown := func(down ...int) {
		for i, f := range r.flaky {
			f.SetDown(false)
			for _, d := range down {
				if i == d {
					f.SetDown(true)
				}
			}
		}
	}

	setDown(2, 3, 4)
	if _, err := w.Commit(ctx, batch("lost", 1)); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("commit on clouds 0 and 1 alone: %v, want ErrNoQuorum", err)
	}
	w.JoinPoll(ctx)
	setDown(0, 1)
	if _, err := w.Commit(ctx, append(batch("lost", 1), batch("retry", 1)...)); err != nil {
		t.Fatal(err)
	}
	w.JoinPoll(ctx)
	setDown()

	reader, gates, recs := r.gatedStore(t, "dR", Config{}, 4)
	done := make(chan error, 1)
	go func() { _, err := reader.Refresh(ctx); done <- err }()
	for deadline := time.Now().Add(20 * time.Second); metaCounts(recs[:4], versionFile).Download < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("clouds 0 to 3 never answered the stamp poll")
		}
	}
	openGates(gates, 4)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "reader after the retry", reader.CachedShared(), w.CachedShared())

	// Clouds 3 and 4 are down: the next commit's quorum is clouds 0 to 2.
	setDown(3, 4)
	commitOne(t, w, "next", "s9")
	w.JoinPoll(ctx)
	setDown()
	if _, err := reader.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "reader after the next commit", reader.CachedShared(), w.CachedShared())
	fresh := r.store(t, "dF", Config{})
	if _, err := fresh.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "fresh reader after the next commit", fresh.CachedShared(), w.CachedShared())
}

// A commit while a cloud is down seals no image and uploads no base:
// the clouds it writes stand on the cursor, and the one left out is
// behind, not repaired.
func TestCommitBesideADownCloudSealsNothing(t *testing.T) {
	ctx := context.Background()
	r := newRig(5)
	reg := obs.NewRegistry()
	s, recs := r.recordedStore(t, "d1", Config{Obs: reg})
	// A large image on every cloud: a rotation on clouds 0 to 2, then a
	// commit on clouds 1 to 3 that repairs cloud 3 and catches up cloud
	// 1 and 2 by the tail.
	r.flaky[3].SetDown(true)
	r.flaky[4].SetDown(true)
	if stats, err := s.Commit(ctx, batch("base", 2000)); err != nil || !stats.BaseRotated {
		t.Fatalf("large commit: %+v, %v", stats, err)
	}
	s.JoinPoll(ctx)
	r.flaky[3].SetDown(false)
	r.flaky[0].SetDown(true)
	commitOne(t, s, "rejoin", "sr")
	s.JoinPoll(ctx)
	r.flaky[0].SetDown(false)

	seals, bases := reg.Counter("deltasync.base_seals").Value(), baseUploads(recs)
	for i := 0; i < 10; i++ {
		commitOne(t, s, fmt.Sprintf("one-%d", i), fmt.Sprintf("s-one-%d", i))
		s.JoinPoll(ctx)
	}
	if n := reg.Counter("deltasync.base_seals").Value() - seals; n != 0 {
		t.Errorf("%d full-image seals beside a down cloud, want 0", n)
	}
	wantBaseUploads(t, recs, bases, -1)
	if g := reg.Gauge("deltasync.commit.behind").Value(); g != 2 {
		t.Errorf("clouds behind = %v, want 2: the down one and the one the quorum left out", g)
	}
}

// A cloud behind the commit on the cursor, at or past the freeze
// boundary, is caught up with exactly the tail and the stamp.
func TestBehindCloudCaughtUpByTailAndStamp(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	reg := obs.NewRegistry()
	s, recs := r.recordedStore(t, "d1", Config{Obs: reg})
	commitOne(t, s, "a", "s1")
	s.JoinPoll(ctx)
	r.flaky[2].SetDown(true)
	commitOne(t, s, "b", "s2") // cloud 2 stays behind
	s.JoinPoll(ctx)
	r.flaky[2].SetDown(false)

	// Cloud 1 is down: the commit's quorum is clouds 0 and 2.
	r.flaky[1].SetDown(true)
	before, n := recs[2].Counts(), len(recs[2].UploadedPaths())
	commitOne(t, s, "c", "s3")
	s.JoinPoll(ctx)
	r.flaky[1].SetDown(false)
	if got, want := recs[2].Counts().Minus(before), (cloudsim.CallCounts{Download: 1, Upload: 2}); got != want {
		t.Errorf("the behind cloud saw %+v, want %+v: its stamp read, the tail and the stamp", got, want)
	}
	want := []string{DefaultDir + "/" + deltaFile, DefaultDir + "/" + versionFile}
	if got := recs[2].UploadedPaths()[n:]; !reflect.DeepEqual(got, want) {
		t.Errorf("the behind cloud was written %v, want %v", got, want)
	}
	if n := reg.Counter("deltasync.commit.catchups.tail").Value(); n < 1 {
		t.Errorf("tail catch-ups = %d, want at least cloud 2's", n)
	}
	only2 := New([]cloud.Interface{cloudsim.NewDirect(r.stores[2])}, testCipher(t), Config{Device: "dR"})
	img, err := only2.fetchAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "reader of the caught-up cloud", img, s.CachedShared())
}

// A cloud on the cursor but behind its freeze boundary lacks the chunk
// the freeze wrote: it is caught up with the cursor's frozen records as
// one chunk, then the tail and the stamp — no base.
func TestCloudBehindAFreezeCaughtUpByOneChunk(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	s, recs := r.recordedStore(t, "dW", Config{})
	r.flaky[1].SetDown(true)
	if stats, err := s.Commit(ctx, batch("base", 3000)); err != nil || !stats.BaseRotated {
		t.Fatalf("large commit: %+v, %v", stats, err)
	}
	s.JoinPoll(ctx)
	r.flaky[1].SetDown(false)
	start := s.Stamp().Version

	// Cloud 2 is down through a freeze: the commits write clouds 0 and 1.
	r.flaky[2].SetDown(true)
	appendUntilFreeze(t, r, s)
	appendBatch(t, r, s)
	s.JoinPoll(ctx)
	r.flaky[2].SetDown(false)

	r.flaky[1].SetDown(true)
	bases, n := baseUploads(recs), len(recs[2].UploadedPaths())
	commitOne(t, s, "rejoin", "sr")
	s.JoinPoll(ctx)
	r.flaky[1].SetDown(false)
	want := []string{DefaultDir + "/" + chunkName(start+1), DefaultDir + "/" + deltaFile, DefaultDir + "/" + versionFile}
	if got := recs[2].UploadedPaths()[n:]; !reflect.DeepEqual(got, want) {
		t.Errorf("the cloud behind the freeze was written %v, want %v", got, want)
	}
	wantBaseUploads(t, recs, bases, -1)
	only2 := New([]cloud.Interface{cloudsim.NewDirect(r.stores[2])}, testCipher(t), Config{Device: "dR"})
	img, err := only2.fetchAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "reader of the caught-up cloud", img, s.CachedShared())
}
