package capacity

import (
	"sync"
	"testing"
	"time"

	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

func newTestTracker(t *testing.T) (*Tracker, *vclock.Manual, *obs.Registry) {
	t.Helper()
	clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
	reg := obs.NewRegistry()
	tr := NewDefaultTracker(clk, reg)
	return tr, clk, reg
}

func TestZeroValueStateIsOK(t *testing.T) {
	tr, _, _ := newTestTracker(t)
	if got := tr.State("c1"); got != OK {
		t.Fatalf("fresh cloud state = %v, want OK", got)
	}
	if !tr.Admits("c1") {
		t.Fatal("fresh cloud should admit uploads")
	}
}

func TestQuotaExceededMarksFull(t *testing.T) {
	tr, _, reg := newTestTracker(t)
	tr.ObserveQuotaExceeded("c1")
	if got := tr.State("c1"); got != Full {
		t.Fatalf("state after quota rejection = %v, want Full", got)
	}
	if tr.Admits("c1") {
		t.Fatal("Full cloud must not admit uploads")
	}
	if tr.Admits("c2") {
		// c2 untouched: capacity is per-cloud.
	} else {
		t.Fatal("quota rejection on c1 must not affect c2")
	}
	if got := reg.Gauge("capacity.c1.state").Value(); got != float64(Full) {
		t.Fatalf("state gauge = %v, want %v", got, float64(Full))
	}
	if got := reg.Counter("capacity.quota_rejections").Value(); got != 1 {
		t.Fatalf("quota_rejections counter = %d, want 1", got)
	}
	if got := reg.Counter("capacity.full_marks").Value(); got != 1 {
		t.Fatalf("full_marks counter = %d, want 1", got)
	}
}

func TestRejectionCountsAreExact(t *testing.T) {
	tr, _, reg := newTestTracker(t)
	for i := 0; i < 7; i++ {
		tr.ObserveQuotaExceeded("c1")
	}
	for i := 0; i < 3; i++ {
		tr.ObserveQuotaExceeded("c2")
	}
	if got := tr.Rejections("c1"); got != 7 {
		t.Fatalf("c1 rejections = %d, want 7", got)
	}
	if got := tr.Rejections("c2"); got != 3 {
		t.Fatalf("c2 rejections = %d, want 3", got)
	}
	if got := tr.Rejections("c3"); got != 0 {
		t.Fatalf("c3 rejections = %d, want 0", got)
	}
	if got := reg.Counter("capacity.quota_rejections").Value(); got != 10 {
		t.Fatalf("total counter = %d, want 10", got)
	}
	if got := reg.Counter("capacity.c1.quota_rejections").Value(); got != 7 {
		t.Fatalf("per-cloud counter = %d, want 7", got)
	}
	// Repeated rejections while already Full are one full_mark.
	if got := reg.Counter("capacity.full_marks").Value(); got != 2 {
		t.Fatalf("full_marks = %d, want 2 (one per cloud)", got)
	}
}

func TestProbeAfterFree(t *testing.T) {
	tr, _, reg := newTestTracker(t)
	tr.ObserveQuotaExceeded("c1")
	if tr.Admits("c1") {
		t.Fatal("Full cloud admits before any free")
	}
	// Any observed delete reopens the cloud for a probe.
	tr.ObserveDelete("c1")
	if got := tr.State("c1"); got != Probing {
		t.Fatalf("state after free = %v, want Probing", got)
	}
	if !tr.Admits("c1") {
		t.Fatal("Probing cloud must admit a probe upload")
	}
	if got := reg.Counter("capacity.probe_opened").Value(); got != 1 {
		t.Fatalf("probe_opened = %d, want 1", got)
	}
	// Probe succeeds: back to OK.
	tr.ObserveUpload("c1", 1024)
	if got := tr.State("c1"); got != OK {
		t.Fatalf("state after successful probe = %v, want OK", got)
	}
	if got := reg.Counter("capacity.readmitted").Value(); got != 1 {
		t.Fatalf("readmitted = %d, want 1", got)
	}
}

func TestProbeFailureSlamsBackToFull(t *testing.T) {
	tr, _, _ := newTestTracker(t)
	tr.ObserveQuotaExceeded("c1")
	tr.ObserveDelete("c1")
	if got := tr.State("c1"); got != Probing {
		t.Fatalf("state = %v, want Probing", got)
	}
	tr.ObserveQuotaExceeded("c1")
	if got := tr.State("c1"); got != Full {
		t.Fatalf("state after failed probe = %v, want Full", got)
	}
	// The delete was consumed: another one is needed.
	tr.ObserveDelete("c1")
	if got := tr.State("c1"); got != Probing {
		t.Fatalf("state after new free = %v, want Probing", got)
	}
}

func TestTimeBasedReProbe(t *testing.T) {
	tr, clk, _ := newTestTracker(t)
	tr.ObserveQuotaExceeded("c1")
	clk.Advance(ProbeInterval - time.Second)
	if tr.Admits("c1") {
		t.Fatal("cloud re-admitted before the cooldown elapsed")
	}
	clk.Advance(time.Second)
	if !tr.Admits("c1") {
		t.Fatal("cloud must re-probe after the cooldown")
	}
	if got := tr.State("c1"); got != Probing {
		t.Fatalf("state = %v, want Probing", got)
	}
	// A failed probe restarts the cooldown from the failure.
	tr.ObserveQuotaExceeded("c1")
	clk.Advance(ProbeInterval / 2)
	if tr.Admits("c1") {
		t.Fatal("cooldown must restart after a failed probe")
	}
	clk.Advance(ProbeInterval / 2)
	if !tr.Admits("c1") {
		t.Fatal("second cooldown elapsed, cloud should probe")
	}
}

func TestUploadWhileFullReadmits(t *testing.T) {
	// A racing in-flight upload that lands after the quota rejection
	// is proof of space; believe it.
	tr, _, _ := newTestTracker(t)
	tr.ObserveQuotaExceeded("c1")
	tr.ObserveUpload("c1", 100)
	if got := tr.State("c1"); got != OK {
		t.Fatalf("state after successful upload = %v, want OK", got)
	}
}

func TestUsedDeltaAccounting(t *testing.T) {
	tr, _, _ := newTestTracker(t)
	tr.ObserveUpload("c1", 1000)
	tr.ObserveUpload("c1", 500)
	tr.ObserveDelete("c1") // a delete's size is not known: uploads only
	if got := usedDelta(tr, "c1"); got != 1500 {
		t.Fatalf("UsedDelta = %d, want 1500", got)
	}
	if got := usedDelta(tr, "c2"); got != 0 {
		t.Fatalf("untouched cloud UsedDelta = %d, want 0", got)
	}
}

func TestWithSpaceFiltersAndOrders(t *testing.T) {
	tr, _, _ := newTestTracker(t)
	tr.ObserveQuotaExceeded("full1")
	tr.ObserveQuotaExceeded("probe1")
	tr.ObserveDelete("probe1")
	got := tr.WithSpace([]string{"probe1", "a", "full1", "b"})
	want := []string{"a", "b", "probe1"}
	if len(got) != len(want) {
		t.Fatalf("WithSpace = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WithSpace = %v, want %v", got, want)
		}
	}
}

func TestSnapshotSorted(t *testing.T) {
	tr, _, _ := newTestTracker(t)
	tr.ObserveUpload("zeta", 10)
	tr.ObserveQuotaExceeded("alpha")
	tr.ObserveQuotaExceeded("alpha")
	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot rows = %d, want 2", len(snap))
	}
	if snap[0].Cloud != "alpha" || snap[1].Cloud != "zeta" {
		t.Fatalf("snapshot order = %v, want alpha then zeta", snap)
	}
	if snap[0].State != "full" || snap[0].Rejections != 2 {
		t.Fatalf("alpha row = %+v, want full/2", snap[0])
	}
	if snap[1].State != "ok" || snap[1].UsedDelta != 10 {
		t.Fatalf("zeta row = %+v, want ok/10", snap[1])
	}
}

func TestAnyFull(t *testing.T) {
	tr, clk, _ := newTestTracker(t)
	if tr.AnyFull() {
		t.Fatal("empty tracker reports AnyFull")
	}
	tr.ObserveUpload("c1", 10)
	if tr.AnyFull() {
		t.Fatal("OK cloud reports AnyFull")
	}
	tr.ObserveQuotaExceeded("c2")
	if !tr.AnyFull() {
		t.Fatal("Full cloud not reported by AnyFull")
	}
	clk.Advance(ProbeInterval)
	if tr.AnyFull() {
		t.Fatal("AnyFull must apply the time-based re-probe transition")
	}
}

func TestNilTrackerIsOff(t *testing.T) {
	var tr *Tracker
	tr.ObserveQuotaExceeded("c1")
	tr.ObserveUpload("c1", 10)
	tr.ObserveDelete("c1")
	if !tr.Admits("c1") {
		t.Fatal("nil tracker must admit everything")
	}
	if got := tr.State("c1"); got != OK {
		t.Fatalf("nil tracker State = %v, want OK", got)
	}
	if got := tr.Rejections("c1"); got != 0 {
		t.Fatalf("nil tracker Rejections = %d, want 0", got)
	}
	if got := usedDelta(tr, "c1"); got != 0 {
		t.Fatalf("nil tracker UsedDelta = %d, want 0", got)
	}
	if tr.AnyFull() {
		t.Fatal("nil tracker AnyFull must be false")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracker Snapshot = %v, want nil", got)
	}
	got := tr.WithSpace([]string{"a", "b"})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("nil tracker WithSpace = %v, want [a b]", got)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{OK: "ok", Probing: "probing", Full: "full", State(99): "unknown"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestDefaultTrackerDefaults(t *testing.T) {
	if ProbeInterval != 60*time.Second {
		t.Fatalf("ProbeInterval = %v, want 60s", ProbeInterval)
	}
	// One delete of any size is a probe signal.
	tr, _, _ := newTestTracker(t)
	tr.ObserveQuotaExceeded("c1")
	tr.ObserveDelete("c1")
	if got := tr.State("c1"); got != Probing {
		t.Fatalf("state after one delete = %v, want Probing", got)
	}
}

func TestConcurrentObservations(t *testing.T) {
	tr, _, _ := newTestTracker(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				switch j % 4 {
				case 0:
					tr.ObserveQuotaExceeded("c1")
				case 1:
					tr.ObserveUpload("c1", 1)
				case 2:
					tr.ObserveDelete("c1")
				case 3:
					tr.Admits("c1")
					tr.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := tr.Rejections("c1"); got != 8*50 {
		t.Fatalf("concurrent rejections = %d, want %d", got, 8*50)
	}
}

// usedDelta is the bytes tr's snapshot reports uploaded to cloudName
// this session.
func usedDelta(tr *Tracker, cloudName string) int64 {
	for _, st := range tr.Snapshot() {
		if st.Cloud == cloudName {
			return st.UsedDelta
		}
	}
	return 0
}
