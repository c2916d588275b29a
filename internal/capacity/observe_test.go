package capacity

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/vclock"
)

// fakeCloud is a scriptable cloud.Interface for Observer tests.
type fakeCloud struct {
	name      string
	uploadErr error
	deleteErr error
}

func (f *fakeCloud) Name() string { return f.name }
func (f *fakeCloud) Upload(context.Context, string, []byte) error {
	return f.uploadErr
}
func (f *fakeCloud) Download(context.Context, string) ([]byte, error) { return nil, nil }
func (f *fakeCloud) CreateDir(context.Context, string) error          { return nil }
func (f *fakeCloud) List(context.Context, string) ([]cloud.Entry, error) {
	return nil, nil
}
func (f *fakeCloud) Delete(context.Context, string) error { return f.deleteErr }

// observed is inner in a chain whose only observer is the tracker, as
// the client stack places it.
func observed(tr *Tracker, inner cloud.Interface) *cloud.Chain {
	return cloud.NewChain(inner, vclock.NewManual(time.Unix(0, 0)), nil, tr.ObserveCall)
}

func TestWrapObservesQuotaAndSuccess(t *testing.T) {
	tr := NewDefaultTracker(vclock.NewManual(time.Unix(0, 0)), nil)
	fc := &fakeCloud{name: "c1"}
	w := observed(tr, fc)
	ctx := context.Background()

	if err := w.Upload(ctx, "p", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if got := usedDelta(tr, "c1"); got != 64 {
		t.Fatalf("UsedDelta after upload = %d, want 64", got)
	}

	fc.uploadErr = fmt.Errorf("sim: %w", cloud.ErrQuotaExceeded)
	if err := w.Upload(ctx, "p", []byte("x")); !errors.Is(err, cloud.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded through", err)
	}
	if got := tr.State("c1"); got != Full {
		t.Fatalf("state = %v, want Full", got)
	}
	if got := tr.Rejections("c1"); got != 1 {
		t.Fatalf("Rejections = %d, want 1", got)
	}

	// A non-quota failure is not capacity evidence.
	fc.uploadErr = fmt.Errorf("sim: %w", cloud.ErrTransient)
	_ = w.Upload(ctx, "p", []byte("x"))
	if got := tr.Rejections("c1"); got != 1 {
		t.Fatalf("Rejections after transient = %d, want 1 still", got)
	}

	// A successful sizeless delete reopens the full cloud for a probe.
	if err := w.Delete(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	if got := tr.State("c1"); got != Probing {
		t.Fatalf("state after delete = %v, want Probing", got)
	}
	// Failed deletes observe nothing.
	tr.ObserveQuotaExceeded("c1")
	fc.deleteErr = errors.New("boom")
	_ = w.Delete(ctx, "p")
	if got := tr.State("c1"); got != Full {
		t.Fatalf("state after failed delete = %v, want Full", got)
	}
}

func TestWrapNilTrackerPassesThrough(t *testing.T) {
	var tr *Tracker
	fc := &fakeCloud{name: "c1", uploadErr: cloud.ErrQuotaExceeded}
	w := observed(tr, fc)
	ctx := context.Background()
	if err := w.Upload(ctx, "p", []byte("x")); !errors.Is(err, cloud.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded through", err)
	}
	if err := w.Delete(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	if !tr.Admits("c1") {
		t.Fatal("a nil tracker observed a quota rejection")
	}
}

func TestWrapReadsSayNothing(t *testing.T) {
	tr := NewDefaultTracker(vclock.NewManual(time.Unix(0, 0)), nil)
	w := observed(tr, &fakeCloud{name: "c1"})
	ctx := context.Background()
	if w.Name() != "c1" {
		t.Fatal("name not forwarded")
	}
	if _, err := w.Download(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.List(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDir(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if len(tr.Snapshot()) != 0 {
		t.Fatalf("reads created capacity records: %v", tr.Snapshot())
	}
}
