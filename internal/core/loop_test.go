package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
	"unidrive/internal/qlock"
	"unidrive/internal/vclock"
)

// TestRunLoopFirstPassIsImmediate pins the fix for the loop waiting a
// full SyncInterval before doing anything: with a manual clock that is
// NEVER advanced, the first pass must still run and commit.
func TestRunLoopFirstPassIsImmediate(t *testing.T) {
	r := newRig(5)
	clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
	folder := localfs.NewMem()
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	a, err := New(clouds, folder, Config{
		Device: "alpha", Passphrase: "shared-secret", Theta: 4096,
		LockExpiry:   500 * time.Millisecond,
		Clock:        clk,
		SyncInterval: time.Hour, // must be irrelevant to the first pass
	})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, folder, "eager.txt", "committed without waiting an interval")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.RunLoop(ctx, func(err error) { t.Error("pass error:", err) })
	}()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && a.Image().Version < 1 {
		time.Sleep(time.Millisecond)
	}
	if v := a.Image().Version; v < 1 {
		t.Fatalf("first pass never ran without a clock advance (version %d)", v)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunLoop did not exit on cancellation")
	}
}

// lockDeleteHang wraps a cloud so that deletes under the quorum-lock
// directory block until the test releases them — a stalled provider
// caught exactly at unlock time. It deliberately ignores the call's
// context: the bounded release must give up on its own deadline, not
// depend on the provider honoring cancellation.
type lockDeleteHang struct {
	cloud.Interface
	release chan struct{}
}

func (h *lockDeleteHang) Delete(ctx context.Context, path string) error {
	if strings.HasPrefix(path, qlock.DefaultLockDir) {
		<-h.release
	}
	return h.Interface.Delete(ctx, path)
}

// TestReleaseLockBoundedByTimeout pins the unlock-path bound: a cloud
// that hangs on the lock-flag delete must not hang the pass. The
// release is abandoned after ReleaseTimeout, counted in the obs table,
// and the pass completes normally (the flag expires on its own).
func TestReleaseLockBoundedByTimeout(t *testing.T) {
	r := newRig(5)
	folder := localfs.NewMem()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	var clouds []cloud.Interface
	for i, st := range r.stores {
		var c cloud.Interface = cloudsim.NewDirect(st)
		if i == 0 {
			c = &lockDeleteHang{Interface: c, release: release}
		}
		clouds = append(clouds, c)
	}
	reg := obs.NewRegistry()
	a, err := New(clouds, folder, Config{
		Device: "alpha", Passphrase: "shared-secret", Theta: 4096,
		LockExpiry:     500 * time.Millisecond,
		ReleaseTimeout: 50 * time.Millisecond,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, folder, "f.txt", "content behind a stuck unlock")

	start := time.Now()
	rep, err := a.SyncOnce(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalChanges != 1 {
		t.Fatalf("LocalChanges = %d, want 1", rep.LocalChanges)
	}
	settle(t, a) // the release runs in the hold's tail
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("pass and release took %v despite the release bound", elapsed)
	}
	if got := reg.Counter("qlock.release_timeouts").Value(); got < 1 {
		t.Fatalf("qlock.release_timeouts = %d, want >= 1", got)
	}
}
