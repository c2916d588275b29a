package deltasync

import (
	"context"
	"testing"

	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
)

// The full path's request budget, where the benchmark's batch workload
// lives (a rotation every round): one cloud's base and tail, a listing
// only when the tail may not be all there is — never when the tail
// joins the base, or when the base already stands at the stamp the
// cloud advertised. The per-cloud budgets are those of the clouds the
// commit reached.
func TestFullRefreshRequestBudget(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	w := r.store(t, "dW", Config{})
	w.lambda = func(int) int { return 1 }
	commitOne(t, w, "a", "s1") // rotates: base v1, empty tail

	reader, recs := r.recordedStore(t, "dR", Config{})
	if _, err := reader.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		// With no stamp known, an empty tail says nothing about chunks: one
		// listing.
		if got, want := rec.Counts(), (cloudsim.CallCounts{Download: 2, List: 1}); got != want {
			t.Errorf("cloud %d: cold fetch of a fresh base issued %+v, want %+v", i, got, want)
		}
	}
	known, knownRecs := r.recordedStore(t, "dK", Config{})
	for _, i := range r.atStamp(t, w) {
		rec := knownRecs[i]
		read, err := known.readCloud(ctx, known.clouds[i], 1)
		if err != nil || read.chain.head() != 1 {
			t.Fatalf("cloud %d: read at the stamp: v%d, %v", i, read.chain.head(), err)
		}
		if got, want := rec.Counts(), (cloudsim.CallCounts{Download: 2}); got != want {
			t.Errorf("cloud %d: cold fetch of a fresh base at a known stamp issued %+v, want %+v", i, got, want)
		}
	}

	// Across a rotation: the stamp poll, one incremental attempt on the
	// newest cloud (its tail, and a listing because the tail is empty),
	// then the full path on that one cloud: base and tail.
	commitOne(t, w, "b", "s2")
	before := make([]cloudsim.CallCounts, len(recs))
	for i, rec := range recs {
		before[i] = rec.Counts()
	}
	reg := obs.NewRegistry()
	reader.cfg.Obs = reg
	if img, err := reader.Refresh(ctx); err != nil || img.Version != 2 {
		t.Fatalf("refresh across a rotation: %v", err)
	}
	reader.JoinPoll(ctx)
	var sum cloudsim.CallCounts
	for i, rec := range recs {
		got := rec.Counts().Minus(before[i])
		if got.Download > 4 || got.List > 1 || got.Upload+got.Delete+got.CreateDir != 0 {
			t.Errorf("cloud %d: refresh across a rotation issued %+v", i, got)
		}
		sum = sum.Plus(got)
	}
	if want := (cloudsim.CallCounts{Download: 3 + 1 + 2, List: 1}); sum != want {
		t.Errorf("refresh across a rotation issued %+v in all, want %+v", sum, want)
	}
	if n := reg.Counter("deltasync.refresh.full_reads").Value(); n != 1 {
		t.Errorf("refresh across a rotation read %d lineages, want 1", n)
	}

	// A tail that joins the base needs no listing.
	w.lambda = func(int) int { return 1 << 30 }
	commitOne(t, w, "c", "s3")
	cold, coldRecs := r.recordedStore(t, "dC", Config{})
	if img, err := cold.fetchAll(ctx); err != nil || img.Version != 3 {
		t.Fatalf("cold fetch: %v", err)
	}
	for _, i := range r.atStamp(t, w) {
		if got, want := coldRecs[i].Counts(), (cloudsim.CallCounts{Download: 2}); got != want {
			t.Errorf("cloud %d: cold fetch of base + tail issued %+v, want %+v", i, got, want)
		}
	}
}
