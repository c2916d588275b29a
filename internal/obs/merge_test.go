package obs

import (
	"math/rand"
	"testing"
	"time"
)

// TestMergeHistogramEqualsUnion: merging two snapshotted histograms
// must give exactly the snapshot of one histogram that observed the
// union of the samples — the property that makes fleet-level p99s
// trustworthy.
func TestMergeHistogramEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, union := NewRegistry(), NewRegistry(), NewRegistry()
	for i := 0; i < 5000; i++ {
		v := rng.ExpFloat64() * 0.3
		if i%3 == 0 {
			a.Histogram("lat").Observe(v)
		} else {
			b.Histogram("lat").Observe(v)
		}
		union.Histogram("lat").Observe(v)
	}
	merged := MergeSnapshots(a.Snapshot(), b.Snapshot()).Histograms["lat"]
	want := union.Snapshot().Histograms["lat"]
	if merged.Count != want.Count {
		t.Fatalf("count: merged=%v want=%v", merged.Count, want.Count)
	}
	// Sums accumulate in different orders, so allow float rounding.
	if diff := merged.Sum - want.Sum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum: merged=%v want=%v", merged.Sum, want.Sum)
	}
	if merged.P50 != want.P50 || merged.P95 != want.P95 || merged.P99 != want.P99 {
		t.Fatalf("quantiles: merged=%v/%v/%v want=%v/%v/%v",
			merged.P50, merged.P95, merged.P99, want.P50, want.P95, want.P99)
	}
	for i := range want.Buckets {
		if merged.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: merged=%d want=%d", i, merged.Buckets[i], want.Buckets[i])
		}
	}
}

func TestMergeSnapshotsTotals(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("syncs").Add(3)
	r2.Counter("syncs").Add(4)
	r2.Counter("only2").Inc()
	r1.Gauge("occupancy").Set(2)
	r2.Gauge("occupancy").Set(5)

	r1.Op("dropbox", OpUpload).Record(OK, 1000, 0, 100*time.Millisecond)
	r1.Op("dropbox", OpUpload).Record(Transient, 0, 0, 50*time.Millisecond)
	r2.Op("dropbox", OpUpload).Record(OK, 2000, 0, 200*time.Millisecond)
	r2.Op("gdrive", OpDownload).Record(OK, 0, 500, 10*time.Millisecond)

	m := MergeSnapshots(r1.Snapshot(), r2.Snapshot())
	if m.Counter("syncs") != 7 || m.Counter("only2") != 1 {
		t.Fatalf("counters: %v", m.Counters)
	}
	if m.Gauges["occupancy"] != 7 {
		t.Fatalf("gauge sum = %v, want 7", m.Gauges["occupancy"])
	}
	row, ok := opRow(m, "dropbox", OpUpload)
	if !ok {
		t.Fatal("merged dropbox/put row missing")
	}
	if row.Outcome(OK) != 2 || row.Outcome(Transient) != 1 {
		t.Fatalf("outcomes: %v", row.Outcomes)
	}
	if row.BytesUp != 3000 {
		t.Fatalf("bytesUp = %d, want 3000", row.BytesUp)
	}
	if row.Latency.Count != 3 {
		t.Fatalf("latency count = %d, want 3", row.Latency.Count)
	}
	if got := m.OutcomeTotal("dropbox", Transient); got != 1 {
		t.Fatalf("OutcomeTotal = %d", got)
	}
	if len(m.Ops) != 2 || m.Ops[0].Cloud != "dropbox" || m.Ops[1].Cloud != "gdrive" {
		t.Fatalf("ops not sorted/merged: %+v", m.Ops)
	}
}

func TestMergeEmptyAndMismatched(t *testing.T) {
	if s := MergeSnapshots(); len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Ops) != 0 {
		t.Fatal("empty merge not empty")
	}
	// One side empty: result is the other side verbatim.
	r := NewRegistry()
	r.Histogram("h").Observe(0.02)
	m := MergeSnapshots(Snapshot{}, r.Snapshot())
	if m.Histograms["h"].Count != 1 || m.Histograms["h"].P50 == 0 {
		t.Fatalf("one-sided merge lost data: %+v", m.Histograms["h"])
	}
	// Bucket-less snapshots (e.g. unmarshalled from an old report)
	// still merge counts and sums.
	a := Snapshot{Histograms: map[string]HistogramSnapshot{"h": {Count: 2, Sum: 4, P50: 9}}}
	b := Snapshot{Histograms: map[string]HistogramSnapshot{"h": {Count: 3, Sum: 6}}}
	got := MergeSnapshots(a, b).Histograms["h"]
	if got.Count != 5 || got.Sum != 10 || got.Mean != 2 || got.P50 != 9 {
		t.Fatalf("degraded merge wrong: %+v", got)
	}
}
