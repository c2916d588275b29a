package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"unidrive/internal/cloud"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(5)
	c.Add(-3) // negative adds are ignored: counters only go up
	c.Add(0)
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %v", g.Value())
	}
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %v, want -7", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter not memoized")
	}
	if r.Counter("a") == r.Counter("b") {
		t.Error("distinct names share a counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not memoized")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram not memoized")
	}
	if r.Op("dropbox", OpUpload) != r.Op("dropbox", OpUpload) {
		t.Error("Op not memoized")
	}
	if r.Op("dropbox", OpUpload) == r.Op("dropbox", OpDownload) {
		t.Error("distinct ops share a row")
	}
	if r.Op("dropbox", OpUpload) == r.Op("gdrive", OpUpload) {
		t.Error("distinct clouds share a row")
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	// All accessors must hand out working discard instances.
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(0.5)
	r.Op("c", OpList).Record(OK, 0, 0, time.Millisecond)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 || len(s.Ops) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	quantile := func(h *Histogram, q float64) float64 {
		s := h.snapshot()
		return bucketQuantile(s.Bounds, s.Buckets, s.Count, q)
	}
	h := newHistogram([]float64{1, 2, 4, 8})
	if quantile(h, 0.5) != 0 {
		t.Fatalf("empty histogram p50 = %v", quantile(h, 0.5))
	}
	// 100 samples uniform over (0,1]: whole distribution in bucket 0.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if h.snapshot().Count != 100 {
		t.Fatalf("count = %d", h.snapshot().Count)
	}
	if got, want := h.Sum(), 50.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Interpolated p50 within [0,1): rank 50 of 100 -> 0.5.
	if got := quantile(h, 0.5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.5", got)
	}
	// q outside [0,1] is clamped.
	if got := quantile(h, -1); got != quantile(h, 0) {
		t.Fatalf("q<0 not clamped: %v vs %v", got, quantile(h, 0))
	}
	if got := quantile(h, 2); got != quantile(h, 1) {
		t.Fatalf("q>1 not clamped: %v vs %v", got, quantile(h, 1))
	}

	// A sample beyond the last bound lands in +Inf and reports the
	// last finite bound.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(100)
	if got := quantile(h2, 0.99); got != 2 {
		t.Fatalf("+Inf bucket quantile = %v, want 2", got)
	}

	// Negative durations clamp to zero.
	h3 := newHistogram(DefaultLatencyBuckets)
	h3.ObserveDuration(-time.Second)
	if h3.Sum() != 0 || h3.snapshot().Count != 1 {
		t.Fatalf("negative duration: sum=%v count=%d", h3.Sum(), h3.snapshot().Count)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	s := h.snapshot()
	if s.Count != 10 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Mean-0.5) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.P50 <= 0 || s.P50 > 1 {
		t.Fatalf("p50 = %v out of bucket", s.P50)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Outcome
	}{
		{nil, OK},
		{cloud.ErrTransient, Transient},
		{fmt.Errorf("wrapped: %w", cloud.ErrTransient), Transient},
		{cloud.ErrUnavailable, Unavailable},
		{cloud.ErrNotFound, NotFound},
		{cloud.ErrQuotaExceeded, Quota},
		{context.Canceled, Canceled},
		{context.DeadlineExceeded, Canceled},
		// Cancellation wins even when wrapped together with a cloud
		// error class.
		{fmt.Errorf("%w: %w", cloud.ErrTransient, context.Canceled), Canceled},
		{fmt.Errorf("mystery"), Other},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if OK.String() != "ok" || Transient.String() != "transient" {
		t.Fatal("basic outcome names wrong")
	}
	if Outcome(200).String() != "other" {
		t.Fatalf("out-of-range outcome = %q", Outcome(200).String())
	}
}

func TestOpStats(t *testing.T) {
	r := NewRegistry()
	st := r.Op("dropbox", OpUpload)
	st.Record(OK, 100, 0, 2*time.Millisecond)
	st.Record(OK, 50, 0, 3*time.Millisecond)
	st.Record(Transient, 0, 0, time.Millisecond)
	st.Record(Outcome(250), 0, 0, 0) // out of range folds into Other

	if got := st.Count(OK); got != 2 {
		t.Fatalf("ok = %d", got)
	}
	if got := st.Count(Transient); got != 1 {
		t.Fatalf("transient = %d", got)
	}
	if got := st.Count(Other); got != 1 {
		t.Fatalf("other = %d", got)
	}
	if got := st.Count(Outcome(250)); got != 0 {
		t.Fatalf("out-of-range Count = %d", got)
	}
	up, down := st.Bytes()
	if up != 150 || down != 0 {
		t.Fatalf("bytes = %d/%d", up, down)
	}
	if got := st.lat.snapshot().Count; got != 4 {
		t.Fatalf("latency count = %d", got)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("retries").Add(3)
	r.Gauge("occupancy").Set(2.5)
	r.Histogram("block_seconds").Observe(0.2)
	r.Op("b", OpDownload).Record(OK, 0, 42, time.Millisecond)
	r.Op("a", OpUpload).Record(Transient, 0, 0, time.Millisecond)
	r.Op("a", OpDelete).Record(OK, 0, 0, time.Millisecond)

	s := r.Snapshot()
	if got := s.Counter("retries"); got != 3 {
		t.Fatalf("counter = %d", got)
	}
	if got := s.Counter("absent"); got != 0 {
		t.Fatalf("absent counter = %d", got)
	}
	if got := s.Gauges["occupancy"]; got != 2.5 {
		t.Fatalf("gauge = %v", got)
	}
	if got := s.Histograms["block_seconds"].Count; got != 1 {
		t.Fatalf("hist count = %d", got)
	}
	// Ops sorted by (cloud, op).
	var order []string
	for _, row := range s.Ops {
		order = append(order, row.Cloud+"/"+row.Op)
	}
	want := []string{"a/delete", "a/upload", "b/download"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("op order = %v, want %v", order, want)
	}
	row, ok := opRow(s, "a", OpUpload)
	if !ok {
		t.Fatal("row a/upload missing")
	}
	if row.Outcome(Transient) != 1 || row.Calls() != 1 {
		t.Fatalf("row = %+v", row)
	}
	if _, ok := opRow(s, "a", OpList); ok {
		t.Fatal("phantom row a/list")
	}
	if got := s.OutcomeTotal("a", OK); got != 1 {
		t.Fatalf("OutcomeTotal(a, OK) = %d", got)
	}
	if got := s.OutcomeTotal("a", Transient); got != 1 {
		t.Fatalf("OutcomeTotal(a, Transient) = %d", got)
	}
	if got := s.OutcomeTotal("b", Transient); got != 0 {
		t.Fatalf("OutcomeTotal(b, Transient) = %d", got)
	}

	// The snapshot is a copy: later writes must not show up in it.
	r.Counter("retries").Inc()
	if got := s.Counter("retries"); got != 3 {
		t.Fatalf("snapshot mutated by later write: %d", got)
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Inc()
	r.Counter("a.first").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(0.01)
	r.Op("dropbox", OpUpload).Record(OK, 10, 0, time.Millisecond)
	out := r.Snapshot().String()
	for _, want := range []string{"CLOUD", "dropbox", "upload", "a.first", "z.last", "gauges:", "histograms:"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	// Counters render sorted.
	if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Errorf("counters not sorted:\n%s", out)
	}
	if got := (Snapshot{}).String(); got != "" {
		t.Errorf("empty snapshot String() = %q", got)
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Op("dropbox", OpList).Record(OK, 0, 0, time.Millisecond)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/unidrive", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if s.Counter("c") != 1 {
		t.Fatalf("decoded counter = %d", s.Counter("c"))
	}
	if _, ok := opRow(s, "dropbox", OpList); !ok {
		t.Fatal("decoded snapshot missing op row")
	}

	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/unidrive", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status = %d", rec.Code)
	}
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	if !PublishExpvar("obs_test_registry", r) {
		t.Fatal("first publish refused")
	}
	if PublishExpvar("obs_test_registry", NewRegistry()) {
		t.Fatal("duplicate publish accepted")
	}
}

// opRow returns the snapshot's table row for (cloud, op) and whether
// it exists.
func opRow(s Snapshot, cloud, op string) (OpSnapshot, bool) {
	for _, row := range s.Ops {
		if row.Cloud == cloud && row.Op == op {
			return row, true
		}
	}
	return OpSnapshot{}, false
}
