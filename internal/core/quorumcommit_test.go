package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/deltasync"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/qlock"
)

// metaWatch is what the quorum-commit test holds over one device's
// clouds: the version-stamp reads of the parked clouds wait for its
// gate, and it watches every metadata write in flight and what a lock
// flag delete sees of them.
type metaWatch struct {
	parked []string
	gate   *gate
	asked  chan struct{} // one per parked stamp read that arrived

	mu       sync.Mutex
	inflight int // metadata writes under way
	stamped  int // version stamps landed since reset
	// atRelease counts flag deletes sent after a stamp landed, and busy
	// those of them that found a metadata write in flight.
	atRelease, busy int
}

func newMetaWatch(parked ...string) *metaWatch {
	return &metaWatch{parked: parked, gate: newGate(), asked: make(chan struct{}, 1024)}
}

func (w *metaWatch) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stamped, w.atRelease, w.busy = 0, 0, 0
}

func (w *metaWatch) counts() (atRelease, busy int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.atRelease, w.busy
}

type watchedCloud struct {
	cloud.Interface
	w *metaWatch
}

func isMeta(path string) bool { return strings.HasPrefix(path, deltasync.DefaultDir+"/") }

// write runs a metadata write, counted in flight.
func (c *watchedCloud) write(path string, do func() error) error {
	w := c.w
	w.mu.Lock()
	w.inflight++
	w.mu.Unlock()
	err := do()
	w.mu.Lock()
	w.inflight--
	if path == versionPath && err == nil {
		w.stamped++
	}
	w.mu.Unlock()
	return err
}

func (c *watchedCloud) Upload(ctx context.Context, path string, data []byte) error {
	if !isMeta(path) {
		return c.Interface.Upload(ctx, path, data)
	}
	return c.write(path, func() error { return c.Interface.Upload(ctx, path, data) })
}

func (c *watchedCloud) Delete(ctx context.Context, path string) error {
	switch {
	case isMeta(path):
		return c.write(path, func() error { return c.Interface.Delete(ctx, path) })
	case strings.HasPrefix(path, qlock.DefaultLockDir+"/"):
		w := c.w
		w.mu.Lock()
		if w.stamped > 0 {
			w.atRelease++
			if w.inflight > 0 {
				w.busy++
			}
		}
		w.mu.Unlock()
	}
	return c.Interface.Delete(ctx, path)
}

func (c *watchedCloud) Download(ctx context.Context, path string) ([]byte, error) {
	if path == versionPath && slices.Contains(c.w.parked, c.Name()) {
		if err := through(ctx, c.w.gate, c.w.asked); err != nil {
			return nil, err
		}
	}
	return c.Interface.Download(ctx, path)
}

// watchedDevice is rig.device with every cloud behind the watch. Its
// lock expiry is long, so that no renewal's flag delete falls inside a
// pass.
func (r *rig) watchedDevice(t *testing.T, name string, w *metaWatch) (*Client, *localfs.Mem, *obs.Registry) {
	t.Helper()
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, &watchedCloud{Interface: cloudsim.NewDirect(st), w: w})
	}
	folder, reg := localfs.NewMem(), obs.NewRegistry()
	c, err := New(clouds, folder, Config{
		Device: name, Passphrase: "shared-secret", Theta: 4096,
		LockExpiry: time.Minute, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, folder, reg
}

// storeStamp reads the version stamp one store holds, the zero stamp
// when it holds none.
func storeStamp(t *testing.T, st *cloudsim.Store) meta.VersionStamp {
	t.Helper()
	data, err := cloudsim.NewDirect(st).Download(ctxT(t), versionPath)
	if errors.Is(err, cloud.ErrNotFound) {
		return meta.VersionStamp{}
	}
	if err != nil {
		t.Fatal(err)
	}
	stamp, err := meta.DecodeVersionStamp(data)
	if err != nil {
		t.Fatal(err)
	}
	return stamp
}

// The metadata commit writes a quorum. With the version-stamp reads of
// the two slowest clouds parked, alpha's commit pass returns without
// them: the three clouds that answered hold the commit, the parked two
// were never written, and no metadata write was in flight when the
// lock was released. Beta's next commit, over every cloud, sees
// alpha's commit and builds on it.
func TestCommitReturnsWithoutTheTwoSlowestClouds(t *testing.T) {
	r := newRig(5)
	w := newMetaWatch("c3", "c4")
	a, fa, reg := r.watchedDevice(t, "alpha", w)
	b, fb := r.device(t, "beta")
	writeFile(t, fa, "warm.txt", "before the parking")
	syncOK(t, a)
	a.store.JoinPoll(ctxT(t))
	before := []meta.VersionStamp{storeStamp(t, r.stores[3]), storeStamp(t, r.stores[4])}

	w.gate.hold()
	release := sync.OnceFunc(w.gate.open)
	defer release()
	w.reset()
	writeFile(t, fa, "new.txt", "written while c3 and c4 hang")
	done := make(chan error, 1)
	go func() { _, err := a.SyncOnce(ctxT(t)); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("alpha's pass waited for the parked clouds")
	}
	settle(t, a) // the release runs in the hold's tail
	await(t, w.asked, 2, "parked stamp reads")
	committed := a.store.Stamp()
	holders := 0
	for i, st := range r.stores {
		got := storeStamp(t, st)
		switch {
		case i >= 3 && got != before[i-3]:
			t.Errorf("parked cloud c%d was written: stamp %+v", i, got)
		case got == committed:
			holders++
		}
	}
	if holders != 3 {
		t.Errorf("%d clouds hold alpha's commit v%d, want 3", holders, committed.Version)
	}
	if n := reg.Gauge("deltasync.commit.behind").Value(); n != 2 {
		t.Errorf("clouds behind = %v, want 2", n)
	}
	if atRelease, busy := w.counts(); atRelease == 0 || busy != 0 {
		t.Errorf("%d flag deletes after the stamps landed, %d of them with a metadata write in flight; want some, none", atRelease, busy)
	}

	writeFile(t, fb, "beta.txt", "written on beta")
	if rep := syncOK(t, b); rep.LocalChanges != 1 {
		t.Fatalf("beta committed %d changes, want 1", rep.LocalChanges)
	}
	if got := b.Image().Version; got != committed.Version+1 {
		t.Errorf("beta committed v%d, want v%d: on top of alpha's commit", got, committed.Version+1)
	}
	if e := b.Image().Lookup("new.txt"); e == nil || e.Current() == nil {
		t.Error("beta's commit lost alpha's new.txt")
	}
	release()
	syncOK(t, a)
	want := map[string]string{"warm.txt": "before the parking", "new.txt": "written while c3 and c4 hang", "beta.txt": "written on beta"}
	requireFolders(t, want, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
}
