package deltasync

import (
	"context"
	"testing"

	"unidrive/internal/cloudsim"
)

// The full path's request budget per cloud, where the benchmark's
// batch workload lives (a rotation every round): never more than the
// base, one listing, the chunks and the tail — and no listing at all
// when the tail joins the base.
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
		// An empty tail says nothing about chunks: one listing.
		if got, want := rec.Counts(), (cloudsim.CallCounts{Download: 2, List: 1}); got != want {
			t.Errorf("cloud %d: cold fetch of a fresh base issued %+v, want %+v", i, got, want)
		}
	}

	// Across a rotation: the stamp poll, one incremental attempt on the
	// newest cloud (its tail, and a listing because the tail is empty),
	// then the full path on every cloud.
	commitOne(t, w, "b", "s2")
	before := make([]cloudsim.CallCounts, len(recs))
	for i, rec := range recs {
		before[i] = rec.Counts()
	}
	if img, err := reader.Refresh(ctx); err != nil || img.Version != 2 {
		t.Fatalf("refresh across a rotation: %v", err)
	}
	var sum cloudsim.CallCounts
	for i, rec := range recs {
		got := rec.Counts().Minus(before[i])
		if got.Download > 4 || got.List > 2 || got.Upload+got.Delete+got.CreateDir != 0 {
			t.Errorf("cloud %d: refresh across a rotation issued %+v", i, got)
		}
		sum = sum.Plus(got)
	}
	if want := (cloudsim.CallCounts{Download: 3 + 1 + 3*2, List: 1 + 3}); sum != want {
		t.Errorf("refresh across a rotation issued %+v in all, want %+v", sum, want)
	}

	// A tail that joins the base needs no listing.
	w.lambda = func(int) int { return 1 << 30 }
	commitOne(t, w, "c", "s3")
	cold, coldRecs := r.recordedStore(t, "dC", Config{})
	if img, err := cold.fetchAll(ctx); err != nil || img.Version != 3 {
		t.Fatalf("cold fetch: %v", err)
	}
	for i, rec := range coldRecs {
		if got, want := rec.Counts(), (cloudsim.CallCounts{Download: 2}); got != want {
			t.Errorf("cloud %d: cold fetch of base + tail issued %+v, want %+v", i, got, want)
		}
	}
}
