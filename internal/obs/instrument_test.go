package obs

import (
	"context"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/vclock"
)

// fakeCloud scripts one error per op and lets each call advance a
// Manual clock, so instrument latencies are exact.
type fakeCloud struct {
	name    string
	err     error
	clock   *vclock.Manual
	latency time.Duration
	data    []byte
}

var _ cloud.Interface = (*fakeCloud)(nil)

func (f *fakeCloud) Name() string { return f.name }

func (f *fakeCloud) call() error {
	if f.clock != nil && f.latency > 0 {
		f.clock.Advance(f.latency)
	}
	return f.err
}

func (f *fakeCloud) Upload(ctx context.Context, path string, data []byte) error {
	return f.call()
}

func (f *fakeCloud) Download(ctx context.Context, path string) ([]byte, error) {
	if err := f.call(); err != nil {
		return nil, err
	}
	return f.data, nil
}

func (f *fakeCloud) CreateDir(ctx context.Context, path string) error { return f.call() }

func (f *fakeCloud) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	return nil, f.call()
}

func (f *fakeCloud) Delete(ctx context.Context, path string) error { return f.call() }

func TestInstrumentRecordsAllOps(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	fc := &fakeCloud{name: "dropbox", clock: clock, latency: 20 * time.Millisecond, data: []byte("abcd")}
	r := NewRegistry()
	in := Instrument(fc, r, clock)
	ctx := context.Background()

	if in.Name() != "dropbox" {
		t.Fatalf("Name = %q", in.Name())
	}

	if err := in.Upload(ctx, "f", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Download(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	if err := in.CreateDir(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.List(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if err := in.Delete(ctx, "f"); err != nil {
		t.Fatal(err)
	}

	s := r.Snapshot()
	for _, op := range []string{OpUpload, OpDownload, OpCreateDir, OpList, OpDelete} {
		row, ok := opRow(s, "dropbox", op)
		if !ok {
			t.Fatalf("no row for %s", op)
		}
		if row.Outcome(OK) != 1 || row.Calls() != 1 {
			t.Fatalf("%s row = %+v", op, row)
		}
		// Each call advanced the manual clock by exactly 20 ms.
		if got := row.Latency.P50; got < 0.01 || got > 0.025 {
			t.Fatalf("%s p50 = %v, want ~0.02", op, got)
		}
	}
	up, _ := opRow(s, "dropbox", OpUpload)
	if up.BytesUp != 5 || up.BytesDown != 0 {
		t.Fatalf("upload bytes = %d/%d", up.BytesUp, up.BytesDown)
	}
	down, _ := opRow(s, "dropbox", OpDownload)
	if down.BytesDown != 4 || down.BytesUp != 0 {
		t.Fatalf("download bytes = %d/%d", down.BytesUp, down.BytesDown)
	}
}

func TestInstrumentClassifiesErrors(t *testing.T) {
	fc := &fakeCloud{name: "box", err: cloud.ErrTransient}
	r := NewRegistry()
	in := Instrument(fc, r, nil) // nil clock falls back to the real one
	ctx := context.Background()

	if err := in.Upload(ctx, "f", []byte("xyz")); err == nil {
		t.Fatal("expected error")
	}
	fc.err = cloud.ErrUnavailable
	if _, err := in.Download(ctx, "f"); err == nil {
		t.Fatal("expected error")
	}

	s := r.Snapshot()
	row, _ := opRow(s, "box", OpUpload)
	if row.Outcome(Transient) != 1 || row.Outcome(OK) != 0 {
		t.Fatalf("upload row = %+v", row)
	}
	// Failed uploads record no payload bytes.
	if row.BytesUp != 0 {
		t.Fatalf("failed upload counted %d bytes", row.BytesUp)
	}
	row, _ = opRow(s, "box", OpDownload)
	if row.Outcome(Unavailable) != 1 {
		t.Fatalf("download row = %+v", row)
	}
	if got := s.OutcomeTotal("box", Transient); got != 1 {
		t.Fatalf("OutcomeTotal transient = %d", got)
	}
}

func TestInstrumentNilRegistry(t *testing.T) {
	fc := &fakeCloud{name: "c", data: []byte("ok")}
	in := Instrument(fc, nil, nil)
	if err := in.Upload(context.Background(), "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Download(context.Background(), "f"); err != nil {
		t.Fatal(err)
	}
}
