package obs

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecording hammers every hot path from GOMAXPROCS
// goroutines while another goroutine snapshots continuously, then
// asserts the exact final totals. Run under -race this doubles as the
// data-race check for the whole package.
func TestConcurrentRecording(t *testing.T) {
	const perG = 2000
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	r := NewRegistry()
	fc := &fakeCloud{name: "c", data: []byte("abc")}
	in := Instrument(fc, r, nil)

	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := r.Snapshot()
				_ = s.String()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(0.005)
				r.Op("c", OpUpload).Record(OK, 1, 0, time.Millisecond)
				_ = in.Upload(ctx, "f", []byte("x"))
			}
		}()
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	total := int64(workers) * perG
	s := r.Snapshot()
	if got := s.Counter("shared"); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := s.Gauges["g"]; got != perG-1 {
		t.Errorf("gauge = %v, want %d", got, perG-1)
	}
	if got := s.Histograms["h"].Count; got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	row, ok := opRow(s, "c", OpUpload)
	if !ok {
		t.Fatal("op row missing")
	}
	// perG direct Records plus perG instrumented uploads per worker.
	if got := row.Outcome(OK); got != 2*total {
		t.Errorf("op ok = %d, want %d", got, 2*total)
	}
	if row.BytesUp != 2*total { // 1 byte each, both paths
		t.Errorf("bytesUp = %d, want %d", row.BytesUp, 2*total)
	}
}

// TestConcurrentGetOrCreate races metric creation for the same names
// and checks every goroutine got the same instance (no lost updates).
func TestConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("n").Inc()
				r.Op("cloud", OpDelete).Record(OK, 0, 0, 0)
			}
		}()
	}
	wg.Wait()
	want := int64(workers) * 500
	if got := r.Counter("n").Value(); got != want {
		t.Errorf("counter = %d, want %d (lost updates across instances?)", got, want)
	}
	if got := r.Op("cloud", OpDelete).Count(OK); got != want {
		t.Errorf("op ok = %d, want %d", got, want)
	}
}
