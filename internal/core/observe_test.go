package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/localfs"
)

// faultyFolder is a Mem whose every ReadFile or Stat of one path, or
// whose every ListAll, fails with errFaulty while armed (set).
type faultyFolder struct {
	*localfs.Mem
	mu    sync.Mutex
	read  string // the path whose ReadFile fails
	stat  string // the path whose Stat fails
	lists bool   // ListAll fails
}

var errFaulty = errors.New("faulty folder: I/O error")

// set arms or disarms the faults under the folder's lock.
func (f *faultyFolder) set(arm func(f *faultyFolder)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	arm(f)
}

func (f *faultyFolder) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	fail := path == f.read
	f.mu.Unlock()
	if fail {
		return nil, errFaulty
	}
	return f.Mem.ReadFile(path)
}

func (f *faultyFolder) Stat(path string) (localfs.FileInfo, error) {
	f.mu.Lock()
	fail := path == f.stat
	f.mu.Unlock()
	if fail {
		return localfs.FileInfo{}, errFaulty
	}
	return f.Mem.Stat(path)
}

func (f *faultyFolder) ListAll() ([]localfs.FileInfo, error) {
	f.mu.Lock()
	fail := f.lists
	f.mu.Unlock()
	if fail {
		return nil, errFaulty
	}
	return f.Mem.ListAll()
}

// requireCommitted fails unless every path is a live file of c's image.
func requireCommitted(t *testing.T, c *Client, paths ...string) {
	t.Helper()
	img := c.Image()
	for _, p := range paths {
		if cur := img.Lookup(p).Current(); cur == nil || cur.Deleted {
			t.Errorf("%s: never committed", p)
		}
	}
}

// A file that cannot be read holds up neither the other changes nor
// the pass: while its every read fails, passes commit the files around
// it, apply a peer's commit and count the failure under
// scan.read_errors. Its event stays unaccepted, so the first full scan
// once it reads again commits it.
func TestUnreadableFileKeepsOtherChanges(t *testing.T) {
	r := newRig(5)
	folder := &faultyFolder{Mem: localfs.NewMem(), read: "b.txt"}
	a := r.deviceOn(t, "alpha", folder)
	b, bFolder := r.device(t, "bravo")
	for _, p := range []string{"a.txt", "b.txt", "c.txt"} {
		writeFile(t, folder.Mem, p, randContent(int64(p[0]), 500))
	}
	syncOK(t, a)
	requireCommitted(t, a, "a.txt", "c.txt")
	writeFile(t, bFolder, "d.txt", "delta")
	syncOK(t, b)
	syncOK(t, a)
	if got, err := folder.Mem.ReadFile("d.txt"); err != nil || string(got) != "delta" {
		t.Fatalf("peer's d.txt on alpha = %q, %v; want it applied", got, err)
	}
	if cur := a.Image().Lookup("b.txt").Current(); cur != nil {
		t.Fatalf("b.txt committed while unreadable: %+v", cur)
	}
	if got := r.regs["alpha"].Counter("scan.read_errors").Value(); got != 2 {
		t.Errorf("scan.read_errors = %d, want one per pass (2)", got)
	}

	folder.set(func(f *faultyFolder) { f.read = "" })
	syncOK(t, a)
	requireCommitted(t, a, "a.txt", "b.txt", "c.txt", "d.txt")
}

// A failed stat in a dirty scan leaves the baseline as it was, so the
// event loop's retry of the same dirty paths reports every change
// again, the paths before the failing one included.
func TestDirtyStatErrorKeepsEarlierChanges(t *testing.T) {
	r := newRig(5)
	folder := &faultyFolder{Mem: localfs.NewMem(), stat: "b.txt"}
	a := r.deviceOn(t, "alpha", folder)
	writeFile(t, folder.Mem, "a.txt", "alpha")
	writeFile(t, folder.Mem, "b.txt", "bravo")
	paths := []string{"a.txt", "b.txt"}
	if _, err := a.SyncDirty(ctxT(t), paths); !errors.Is(err, errFaulty) {
		t.Fatalf("first pass: err = %v, want the stat error", err)
	}
	folder.set(func(f *faultyFolder) { f.stat = "" })
	if _, err := a.SyncDirty(ctxT(t), paths); err != nil {
		t.Fatal(err)
	}
	requireCommitted(t, a, "a.txt", "b.txt")
}

// An unreadable folder is unknown, never empty: a pass whose listing
// fails returns the error, sends no Delete and commits no tombstone,
// and the next good pass removes nothing either.
func TestUnreadableFolderRemovesNothing(t *testing.T) {
	r := newRig(5)
	folder := &faultyFolder{Mem: localfs.NewMem()}
	var clouds []cloud.Interface
	var recs []*cloudsim.Recorder
	for i, st := range r.stores {
		rec := cloudsim.NewRecorder(cloudsim.NewFlaky(cloudsim.NewDirect(st), 0, int64(i)))
		recs, clouds = append(recs, rec), append(clouds, rec)
	}
	a, err := New(clouds, folder, Config{
		Device: "alpha", Passphrase: "shared-secret", Theta: 4096, LockExpiry: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, folder.Mem, "a.txt", "alpha")
	writeFile(t, folder.Mem, "b.txt", "bravo")
	syncOK(t, a)
	recordPlacements(t, a) // the last hold's release deletes its flags in its tail
	version := a.Image().Version
	before := make([]int, len(recs))
	for i, rec := range recs {
		before[i] = rec.Counts().Delete
	}

	folder.set(func(f *faultyFolder) { f.lists = true })
	if _, err := a.SyncOnce(ctxT(t)); !errors.Is(err, errFaulty) {
		t.Fatalf("pass over an unreadable folder: err = %v, want the listing error", err)
	}
	folder.set(func(f *faultyFolder) { f.lists = false })
	syncOK(t, a)

	for i, rec := range recs {
		if n := rec.Counts().Delete - before[i]; n != 0 {
			t.Errorf("%s saw %d Delete requests", rec.Name(), n)
		}
	}
	if v := a.Image().Version; v != version {
		t.Errorf("image moved from v%d to v%d", version, v)
	}
	requireCommitted(t, a, "a.txt", "b.txt")
}
