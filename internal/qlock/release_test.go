package qlock

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
)

// lockDirNames lists the lock directory of every cloud.
func lockDirNames(t *testing.T, clouds []cloud.Interface) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, c := range clouds {
		entries, err := c.List(context.Background(), DefaultLockDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			out[c.Name()] = append(out[c.Name()], e.Name)
		}
	}
	return out
}

// An uncontended lock hold costs three fan-outs — the flag upload, the
// list that decides the quorum, and the delete of that flag by name —
// and nothing else: release does not list.
func TestUncontendedHoldIsFifteenRequests(t *testing.T) {
	clouds, recs := recordedClouds(5)
	cfg := fastCfg("d1")
	cfg.RefreshInterval = time.Hour // no refresh inside this hold
	m := New(clouds, cfg)
	lock, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := lock.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sum cloudsim.CallCounts
	for i, rec := range recs {
		c := rec.Counts()
		if want := (cloudsim.CallCounts{Upload: 1, List: 1, Delete: 1}); c != want {
			t.Errorf("cloud c%d saw %+v, want %+v", i, c, want)
		}
		sum = sum.Plus(c)
	}
	if sum.Total() != 15 || sum.Upload != 5 || sum.List != 5 || sum.Delete != 5 {
		t.Errorf("acquire+release = %+v, want 5 uploads + 5 lists + 5 deletes", sum)
	}
	// A second release has nothing on record and sends nothing.
	if err := lock.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if n := rec.Counts().Total(); n != 3 {
			t.Errorf("cloud c%d saw %d requests after a repeated release, want 3", i, n)
		}
	}
	if left := lockDirNames(t, clouds); len(left) != 0 {
		t.Errorf("lock files left after release: %v", left)
	}
}

// A flag file a crashed incarnation of this device left behind is
// seen by the acquisition List and deleted by name with the release.
func TestReleaseDeletesOwnFlagSeenDuringAcquire(t *testing.T) {
	clouds, recs := recordedClouds(5)
	stale := cloud.JoinPath(DefaultLockDir, "lock_d1_999.9")
	for _, c := range clouds[:2] {
		if err := c.Upload(context.Background(), stale, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := make([]cloudsim.CallCounts, len(recs))
	for i, rec := range recs {
		before[i] = rec.Counts()
	}
	cfg := fastCfg("d1")
	cfg.RefreshInterval = time.Hour
	m := New(clouds, cfg)
	lock, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := lock.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		c := rec.Counts()
		wantDeletes := 1
		if i < 2 {
			wantDeletes = 2 // the current flag and the planted one
		}
		if got := c.Delete - before[i].Delete; got != wantDeletes {
			t.Errorf("cloud c%d: %d deletes, want %d", i, got, wantDeletes)
		}
		if got := c.List - before[i].List; got != 1 {
			t.Errorf("cloud c%d: %d lists, want 1 (the acquisition's)", i, got)
		}
	}
	if left := lockDirNames(t, clouds); len(left) != 0 {
		t.Errorf("lock files left after release: %v", left)
	}
}

// failingDeletes fails the first Delete of every path, while armed.
type failingDeletes struct {
	cloud.Interface
	mu     sync.Mutex
	armed  bool
	failed map[string]bool
}

func (f *failingDeletes) Delete(ctx context.Context, path string) error {
	f.mu.Lock()
	fail := f.armed && !f.failed[path]
	if fail {
		f.failed[path] = true
	}
	f.mu.Unlock()
	if fail {
		return cloud.ErrTransient
	}
	return f.Interface.Delete(ctx, path)
}

// A refresh that uploaded the new flag but could not delete the old
// one leaves two own files on that cloud; the release removes both,
// still without listing.
func TestReleaseDeletesNameARefreshLeftBehind(t *testing.T) {
	clouds, recs := recordedClouds(5)
	faulty := &failingDeletes{Interface: clouds[3], failed: make(map[string]bool)}
	clouds[3] = faulty
	cfg := fastCfg("d1")
	cfg.RefreshInterval = time.Hour // refreshes are driven by hand below
	m := New(clouds, cfg)
	lock, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	faulty.mu.Lock()
	faulty.armed = true
	faulty.mu.Unlock()
	lock.refreshOnce(context.Background())
	faulty.mu.Lock()
	faulty.armed = false
	nFailed := len(faulty.failed)
	faulty.mu.Unlock()
	if nFailed != 1 {
		t.Fatalf("%d deletes failed during the refresh, want 1", nFailed)
	}
	if !lock.Valid() {
		t.Fatal("lock lost validity though every flag was renewed")
	}
	names := lockDirNames(t, clouds)
	if got := names["c3"]; len(got) != 2 {
		t.Fatalf("c3 holds %v after the failed cleanup, want the old and the new flag", got)
	}
	for name, got := range names {
		for _, n := range got {
			if !strings.HasPrefix(n, "lock_d1_") {
				t.Fatalf("%s holds foreign file %s", name, n)
			}
		}
	}
	lists := 0
	for _, rec := range recs {
		lists += rec.Counts().List
	}
	if err := lock.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	if left := lockDirNames(t, clouds); len(left) != 0 {
		t.Errorf("lock files left after release: %v", left)
	}
	// lockDirNames itself listed each cloud once.
	after := 0
	for _, rec := range recs {
		after += rec.Counts().List
	}
	if after-lists != len(clouds) {
		t.Errorf("release listed the lock directory %d times, want 0", after-lists-len(clouds))
	}
}
