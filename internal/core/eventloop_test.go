package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/chunker"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

// loopRig builds a single client over direct clouds with switchable
// outage, a chosen folder, and an obs registry — the fixture for the
// RunLoop behavior tests.
type loopRig struct {
	rig    *rig
	flaky  []*cloudsim.Flaky
	client *Client
	reg    *obs.Registry
}

func newLoopRig(t *testing.T, folder localfs.Folder, cfg Config) *loopRig {
	t.Helper()
	r := newRig(5)
	lr := &loopRig{rig: r, reg: obs.NewRegistry()}
	var clouds []cloud.Interface
	for i, st := range r.stores {
		f := cloudsim.NewFlaky(cloudsim.NewDirect(st), 0, int64(i+1))
		lr.flaky = append(lr.flaky, f)
		clouds = append(clouds, f)
	}
	cfg.Passphrase = "shared-secret"
	if cfg.Device == "" {
		cfg.Device = "looper"
	}
	if cfg.Theta == 0 {
		cfg.Theta = 4096
	}
	if cfg.LockExpiry == 0 {
		cfg.LockExpiry = 500 * time.Millisecond
	}
	cfg.Obs = lr.reg
	c, err := New(clouds, folder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lr.client = c
	return lr
}

func (lr *loopRig) setDown(down bool) {
	for _, f := range lr.flaky {
		f.SetDown(down)
	}
}

// startLoop runs RunLoop in the background and returns a stop func
// registered as cleanup.
func startLoop(t *testing.T, c *Client, onError func(error)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.RunLoop(ctx, onError)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("RunLoop did not exit on cancellation")
		}
	})
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRunLoopBackoffOnConsecutiveFailures pins the jittered
// exponential backoff: pass failures space retries by growing delays
// within the jitter envelope [0.5, 1.5)×base×2^(n-1), and the first
// success resets the schedule.
func TestRunLoopBackoffOnConsecutiveFailures(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
	base := time.Second
	lr := newLoopRig(t, localfs.NewMem(), Config{
		Clock:        clk,
		SyncInterval: base, // BackoffBase defaults to SyncInterval
	})
	var errs atomic.Int64
	lr.setDown(true)
	startLoop(t, lr.client, func(error) { errs.Add(1) })

	// The immediate first pass fails with every cloud down.
	waitCond(t, "first failure", func() bool { return errs.Load() >= 1 })

	// advanceUntil steps virtual time until the error count reaches
	// want, returning how much virtual time it took.
	step := 50 * time.Millisecond
	advanceUntil := func(want int64, cap time.Duration) time.Duration {
		t.Helper()
		var advanced time.Duration
		deadline := time.Now().Add(10 * time.Second)
		for errs.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("no failure #%d after advancing %v", want, advanced)
			}
			if advanced >= cap {
				t.Fatalf("failure #%d needed more than %v of virtual time", want, cap)
			}
			clk.Advance(step)
			advanced += step
			time.Sleep(time.Millisecond)
		}
		return advanced
	}

	// Failure 1 -> 2: delay in [0.5, 1.5)×base.
	d1 := advanceUntil(2, 2*base)
	if d1 < base/2 {
		t.Fatalf("second attempt after only %v, want >= %v (0.5×base)", d1, base/2)
	}
	// Failure 2 -> 3: delay in [1, 3)×base — the exponent grew.
	d2 := advanceUntil(3, 4*base)
	if d2 < base-step {
		t.Fatalf("third attempt after only %v, want >= ~%v (0.5×2×base)", d2, base)
	}
	if got := lr.reg.Counter("sync.loop.backoffs").Value(); got != 3 {
		t.Fatalf("sync.loop.backoffs = %d, want 3", got)
	}

	// Recovery: the next retry succeeds and resets the failure count.
	lr.setDown(false)
	before := lr.reg.Counter("deltasync.refresh.noop").Value()
	waitSuccess := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for lr.reg.Counter("deltasync.refresh.noop").Value() == before {
			if time.Now().After(deadline) {
				t.Fatal("no successful pass after recovery")
			}
			clk.Advance(step)
			time.Sleep(time.Millisecond)
		}
	}
	waitSuccess()

	// A fresh failure starts over at [0.5, 1.5)×base — not at the
	// 4×base tier a non-reset counter would be at.
	lr.setDown(true)
	n := errs.Load()
	waitCond(t, "failure after recovery", func() bool {
		clk.Advance(step)
		return errs.Load() > n
	})
	n = errs.Load()
	dReset := advanceUntil(n+1, 2*base)
	if dReset >= 2*base {
		t.Fatalf("post-reset retry took %v, backoff did not reset", dReset)
	}
}

// silentWatch pretends to watch but never delivers an event — a
// worst-case lossy watcher.
type silentWatch struct{ ch chan localfs.WatchEvent }

func (w *silentWatch) Events() <-chan localfs.WatchEvent { return w.ch }
func (w *silentWatch) Overflowed() bool                  { return false }
func (w *silentWatch) Close() error                      { return nil }

// lossyFolder is a Mem folder whose watcher drops every event.
type lossyFolder struct{ *localfs.Mem }

func (f *lossyFolder) Watch() (localfs.Watch, error) {
	return &silentWatch{ch: make(chan localfs.WatchEvent)}, nil
}

// TestRunLoopLossyWatcherConvergesViaRescan pins the safety net: with
// a watcher that silently drops everything, changes must still land
// through the low-frequency full rescan.
func TestRunLoopLossyWatcherConvergesViaRescan(t *testing.T) {
	folder := &lossyFolder{localfs.NewMem()}
	lr := newLoopRig(t, folder, Config{SyncInterval: 20 * time.Millisecond})
	startLoop(t, lr.client, func(err error) { t.Error("pass error:", err) })

	// Let the first full pass go by, then write behind the dead watcher.
	waitCond(t, "loop warm-up", func() bool {
		return lr.reg.Gauge("sync.loop.watching").Value() == 1
	})
	writeFile(t, folder.Mem, "dropped.txt", "the watcher never saw this")

	waitCond(t, "safety-net rescan to commit", func() bool {
		return lr.client.Image().Lookup("dropped.txt").Current() != nil
	})
	if got := lr.reg.Counter("sync.watch.events").Value(); got != 0 {
		t.Fatalf("sync.watch.events = %d, want 0 (nothing was delivered)", got)
	}
}

// plainFolder hides Mem's Watch method so the folder is unwatchable.
type plainFolder struct{ localfs.Folder }

// TestRunLoopUnwatchableFolderPolls pins the polling fallback: a
// folder without watch support runs the classic τ-periodic loop.
func TestRunLoopUnwatchableFolderPolls(t *testing.T) {
	mem := localfs.NewMem()
	lr := newLoopRig(t, &plainFolder{mem}, Config{SyncInterval: 20 * time.Millisecond})
	startLoop(t, lr.client, func(err error) { t.Error("pass error:", err) })

	waitCond(t, "polling-mode gauge", func() bool {
		return lr.reg.Gauge("sync.loop.watching").Value() == 0 &&
			lr.reg.Counter("deltasync.refresh.noop").Value() > 0 // first pass done
	})
	writeFile(t, mem, "polled.txt", "found by periodic scan")
	waitCond(t, "periodic pass to commit", func() bool {
		return lr.client.Image().Lookup("polled.txt").Current() != nil
	})
}

// TestRunLoopDebounceCoalescesEditorSave pins the change buffer: an
// editor-style save (write temp, delete temp, write target) inside
// one settle window produces ONE commit containing only the target —
// no temp-file add, no tombstone, one metadata version.
func TestRunLoopDebounceCoalescesEditorSave(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
	mem := localfs.NewMem()
	lr := newLoopRig(t, mem, Config{
		Clock:        clk,
		SyncInterval: time.Hour, // keep the pollers out of the way
	})
	startLoop(t, lr.client, func(err error) { t.Error("pass error:", err) })

	// Wait out the immediate first full pass (it polls remote once).
	waitCond(t, "first pass", func() bool {
		return lr.reg.Counter("deltasync.refresh.noop").Value() >= 1
	})

	// Editor save pattern, all within the settle window.
	writeFile(t, mem, "doc.txt.tmp", "draft")
	if err := mem.Remove("doc.txt.tmp"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, mem, "doc.txt", "final contents")

	// All three events must reach the loop's dirty buffer before the
	// window is advanced past.
	waitCond(t, "watch events buffered", func() bool {
		return lr.reg.Counter("sync.watch.events").Value() >= 3
	})
	clk.Advance(time.Second) // > default 500ms settle window

	waitCond(t, "debounced commit", func() bool {
		return lr.client.Image().Version >= 1
	})
	img := lr.client.Image()
	if img.Version != 1 {
		t.Fatalf("version = %d, want exactly 1 (one coalesced commit)", img.Version)
	}
	if img.Lookup("doc.txt").Current() == nil {
		t.Fatal("doc.txt missing after debounced pass")
	}
	if img.Lookup("doc.txt.tmp") != nil {
		t.Fatal("temp file leaked into metadata")
	}
}

// TestSpuriousMtimeDoesNotCommit pins the touch(1) guard: rewriting a
// file with identical content but a new mtime must not produce a
// commit, and is counted under scan.spurious_mtime.
func TestSpuriousMtimeDoesNotCommit(t *testing.T) {
	mem := localfs.NewMem()
	lr := newLoopRig(t, mem, Config{})
	c := lr.client

	writeFile(t, mem, "stable.txt", "same bytes forever")
	rep := syncOK(t, c)
	if rep.LocalChanges != 1 || rep.Version != 1 {
		t.Fatalf("setup pass = %+v", rep)
	}

	// touch(1): same content, new mtime.
	if err := mem.WriteFile("stable.txt", []byte("same bytes forever"), time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	rep = syncOK(t, c)
	if rep.LocalChanges != 0 {
		t.Fatalf("spurious mtime committed %d changes", rep.LocalChanges)
	}
	if rep.Version != 1 {
		t.Fatalf("version = %d after touch, want 1", rep.Version)
	}
	if got := lr.reg.Counter("scan.spurious_mtime").Value(); got != 1 {
		t.Fatalf("scan.spurious_mtime = %d, want 1", got)
	}

	// A real edit still commits.
	writeFile(t, mem, "stable.txt", "different bytes now!")
	rep = syncOK(t, c)
	if rep.LocalChanges != 1 || rep.Version != 2 {
		t.Fatalf("real edit pass = %+v", rep)
	}
}

// TestTouchedFileCachesNothing pins that the touch(1) guard decides
// before it caches: a file rewritten with the same bytes and a new
// mtime leaves no segment in the upload cache, which nothing would
// drop until the path is committed again.
func TestTouchedFileCachesNothing(t *testing.T) {
	mem := localfs.NewMem()
	lr := newLoopRig(t, mem, Config{})
	c := lr.client
	content := randContent(5, 10000)
	writeFile(t, mem, "stable.bin", content)
	syncOK(t, c)
	cached := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.segData)
	}
	if n := cached(); n != 0 {
		t.Fatalf("segData holds %d segments after the commit, want 0", n)
	}
	if err := mem.WriteFile("stable.bin", []byte(content), time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if rep := syncOK(t, c); rep.LocalChanges != 0 {
		t.Fatalf("touch committed %d changes", rep.LocalChanges)
	}
	if n := cached(); n != 0 {
		t.Fatalf("segData holds %d segments after a touch, want 0", n)
	}
}

// TestRecordEventsMatchesSerialHashing drives recordEvents over many
// files of one to several segments, mixed with a delete, a touch, a
// real edit and a file gone before it is read, and checks the recorded
// changes against the events in order, each named by serial SegmentID.
func TestRecordEventsMatchesSerialHashing(t *testing.T) {
	mem := localfs.NewMem()
	lr := newLoopRig(t, mem, Config{})
	c := lr.client
	writeFile(t, mem, "old/touched.bin", randContent(1, 9000))
	writeFile(t, mem, "old/edited.bin", randContent(2, 9000))
	writeFile(t, mem, "old/removed.bin", randContent(3, 9000))
	syncOK(t, c)

	stat := func(path string) localfs.FileInfo {
		info, err := mem.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	var events []localfs.Event
	var want []string // the paths that record a change, in event order
	for i := 0; i < 40; i++ {
		path := fmt.Sprintf("new/f%02d.bin", i)
		writeFile(t, mem, path, randContent(int64(100+i), 1+i*i*20))
		events = append(events, localfs.Event{Kind: localfs.Added, Info: stat(path)})
		want = append(want, path)
		switch i {
		case 10:
			events = append(events, localfs.Event{Kind: localfs.Modified, Info: stat("old/touched.bin")})
		case 20:
			writeFile(t, mem, "old/edited.bin", randContent(4, 12000))
			events = append(events, localfs.Event{Kind: localfs.Modified, Info: stat("old/edited.bin")})
			want = append(want, "old/edited.bin")
		case 30:
			if err := mem.Remove("old/removed.bin"); err != nil {
				t.Fatal(err)
			}
			events = append(events, localfs.Event{Kind: localfs.Removed, Info: localfs.FileInfo{Path: "old/removed.bin"}})
			want = append(want, "old/removed.bin")
			events = append(events, localfs.Event{Kind: localfs.Added, Info: localfs.FileInfo{Path: "new/gone.bin"}})
		}
	}

	c.writer.Lock()
	recorded, err := c.recordEvents(events)
	c.writer.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	changes := c.changes.Drain()
	if recorded != len(want) || len(changes) != len(want) {
		t.Fatalf("recorded %d changes (%d listed), want %d", recorded, len(changes), len(want))
	}
	for i, ch := range changes {
		if ch.Path != want[i] {
			t.Fatalf("change %d is %s, want %s", i, ch.Path, want[i])
		}
		if ch.Type == meta.ChangeDelete {
			continue
		}
		data, err := mem.ReadFile(ch.Path)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, seg := range c.chnk.Split(data) {
			ids = append(ids, chunker.SegmentID(seg.Data))
		}
		if !slices.Equal(ch.Snapshot.SegmentIDs, ids) {
			t.Fatalf("%s: snapshot names %v, serial hashing %v", ch.Path, ch.Snapshot.SegmentIDs, ids)
		}
		if len(ch.Segments) != len(ids) {
			t.Fatalf("%s: %d segment records for %d segments", ch.Path, len(ch.Segments), len(ids))
		}
		for j, rec := range ch.Segments {
			if rec.ID != ids[j] {
				t.Fatalf("%s: record %d is %s, want %s", ch.Path, j, rec.ID, ids[j])
			}
		}
	}
}

// TestSyncDirtyCommitsOnlyDirtyPaths pins the O(changes) pass: a
// dirty-path pass commits the named change without rescanning or
// re-statting the rest of the folder.
func TestSyncDirtyCommitsOnlyDirtyPaths(t *testing.T) {
	mem := localfs.NewMem()
	lr := newLoopRig(t, mem, Config{})
	c := lr.client
	for _, p := range []string{"a.txt", "b.txt", "c.txt"} {
		writeFile(t, mem, p, "seed "+p)
	}
	syncOK(t, c)

	writeFile(t, mem, "b.txt", "edited")
	rep, err := c.SyncDirty(ctxT(t), []string{"b.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalChanges != 1 || rep.Version != 2 {
		t.Fatalf("dirty pass = %+v", rep)
	}
	// The pass statted exactly one file (histogram sum tracks it).
	h := lr.reg.Snapshot().Histograms["sync.pass.files_statted"]
	if h.Count < 2 {
		t.Fatalf("files_statted observations = %d", h.Count)
	}

	// An empty dirty set is a no-op that touches nothing remote.
	before := lr.reg.Counter("deltasync.refresh.noop").Value()
	rep, err = c.SyncDirty(ctxT(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 2 || rep.LocalChanges != 0 {
		t.Fatalf("empty dirty pass = %+v", rep)
	}
	if lr.reg.Counter("deltasync.refresh.noop").Value() != before {
		t.Fatal("empty dirty pass polled the clouds")
	}
}

// TestSyncRemoteAppliesPeerCommit pins the remote observer pass: a
// peer's commit is detected by the stamp poll and applied without any
// local scan.
func TestSyncRemoteAppliesPeerCommit(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")
	writeFile(t, fa, "shared.txt", "from alpha")
	syncOK(t, a)

	rep, err := b.SyncRemote(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CloudChanges != 1 || rep.Version != 1 {
		t.Fatalf("remote pass = %+v", rep)
	}
	got, err := fb.ReadFile("shared.txt")
	if err != nil || string(got) != "from alpha" {
		t.Fatalf("shared.txt = %q, %v", got, err)
	}
}

// TestEveryApplyingPassAdvancesPersistedHead pins the checkpoint
// contract that replaced the throttle: after every committing pass a
// fresh client over the same folder restores exactly the version that
// pass reached, and the passes after the first persist a delta, not
// another base.
func TestEveryApplyingPassAdvancesPersistedHead(t *testing.T) {
	mem := localfs.NewMem()
	lr := newLoopRig(t, mem, Config{})
	c := lr.client

	for i, name := range []string{"one.txt", "two.txt", "three.txt"} {
		writeFile(t, mem, name, name)
		want := syncOK(t, c).Version
		fresh := newLoopRig(t, mem, Config{}).client
		if restored, reason, err := fresh.LoadState(); err != nil || !restored {
			t.Fatalf("pass %d: restored=%v reason=%q err=%v", i, restored, reason, err)
		}
		if got := fresh.Image().Version; got != want {
			t.Fatalf("pass %d: persisted head v%d, pass reached v%d", i, got, want)
		}
	}
	if got := lr.reg.Counter("core.checkpoint.compactions").Value(); got != 1 {
		t.Fatalf("core.checkpoint.compactions = %d, want 1 (the first pass's base)", got)
	}
	if got := lr.reg.Counter("core.checkpoint.deltas").Value(); got != 2 {
		t.Fatalf("core.checkpoint.deltas = %d, want 2", got)
	}
}

// TestRunLoopQuotaBlockedBacksOffToSafetyNet pins the capacity-aware
// backoff: a pass failing with ErrInsufficientCapacity waits a full
// safety-net interval (it does NOT climb the exponential ladder — a
// jittered retry re-fails identically until space returns), and the
// safety-net retry succeeds once quota is restored and the capacity
// tracker's probe re-admits the clouds.
func TestRunLoopQuotaBlockedBacksOffToSafetyNet(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
	folder := localfs.NewMem()
	if err := folder.WriteFile("doc.txt", make([]byte, 8192), clk.Now()); err != nil {
		t.Fatal(err)
	}
	// The tracker's clock is its own: the test moves its re-probe
	// cooldown (capacity.ProbeInterval) past in one step once space
	// returns, without running the loop's clock that far.
	capClk := vclock.NewManual(clk.Now())
	tracker := capacity.NewDefaultTracker(capClk, nil)
	var passes atomic.Int64
	lr := newLoopRig(t, folder, Config{
		Clock:              clk,
		SyncInterval:       time.Second,
		FullRescanInterval: 10 * time.Second,
		DisableWatch:       true,
		Capacity:           tracker,
		OnPass:             func(SyncReport) { passes.Add(1) },
	})
	for _, f := range lr.flaky {
		f.SetQuotaFull(true)
	}

	var mu sync.Mutex
	var lastErr error
	var errs atomic.Int64
	startLoop(t, lr.client, func(err error) {
		mu.Lock()
		lastErr = err
		mu.Unlock()
		errs.Add(1)
	})

	// The immediate first pass hits quota on every cloud: the upload
	// plan cannot reach availability and the failure is classified.
	waitCond(t, "first quota failure", func() bool { return errs.Load() >= 1 })
	mu.Lock()
	got := lastErr
	mu.Unlock()
	if !errors.Is(got, ErrInsufficientCapacity) {
		t.Fatalf("pass error = %v, want ErrInsufficientCapacity", got)
	}
	if got := lr.reg.Counter("sync.loop.quota_blocked").Value(); got != 1 {
		t.Fatalf("sync.loop.quota_blocked = %d, want 1", got)
	}
	if got := lr.reg.Counter("sync.loop.backoffs").Value(); got != 0 {
		t.Fatalf("sync.loop.backoffs = %d, want 0 — quota failure took the backoff ladder", got)
	}

	// The backoff ladder would retry within ~1.5×SyncInterval; the
	// quota path must stay quiet until the 10s safety net.
	clk.Advance(3 * time.Second)
	time.Sleep(50 * time.Millisecond)
	if errs.Load() != 1 {
		t.Fatalf("retried %d times within 3s of a quota block", errs.Load()-1)
	}

	// Space returns; the tracker's probe cooldown elapses before the
	// safety-net retry, so the 10s pass re-admits and succeeds.
	for _, f := range lr.flaky {
		f.SetQuotaFull(false)
	}
	capClk.Advance(capacity.ProbeInterval)
	step := 50 * time.Millisecond
	deadline := time.Now().Add(10 * time.Second)
	for passes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no successful pass after quota restore")
		}
		clk.Advance(step)
		time.Sleep(time.Millisecond)
	}
	if got := lr.reg.Counter("sync.loop.backoffs").Value(); got != 0 {
		t.Fatalf("sync.loop.backoffs = %d after recovery, want 0", got)
	}
	if errs.Load() != 1 {
		t.Fatalf("extra pass failures after restore: %d", errs.Load())
	}
}
