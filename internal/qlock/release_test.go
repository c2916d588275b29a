package qlock

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
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
// and nothing else: release does not list. The first hold asks every
// cloud (5 + 5 + 5 requests: the deletes are the shed outside the
// winning quorum and the release inside it); the next asks only the
// three clouds that won the first, and sends nine.
func TestUncontendedHoldIsNineRequests(t *testing.T) {
	clouds, recs := recordedClouds(5)
	cfg := fastCfg("d1")
	cfg.RefreshInterval = time.Hour // no refresh inside this hold
	reg := obs.NewRegistry()
	cfg.Obs = reg
	m := New(clouds, cfg)
	hold := func() *Lock {
		t.Helper()
		lock, err := m.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := lock.Release(context.Background()); err != nil {
			t.Fatal(err)
		}
		return lock
	}
	first := hold()
	var sum cloudsim.CallCounts
	for i, rec := range recs {
		c := rec.Counts()
		if want := (cloudsim.CallCounts{Upload: 1, List: 1, Delete: 1}); c != want {
			t.Errorf("cloud c%d saw %+v, want %+v", i, c, want)
		}
		sum = sum.Plus(c)
	}
	if sum.Total() != 15 || sum.Upload != 5 || sum.List != 5 || sum.Delete != 5 {
		t.Errorf("first acquire+release = %+v, want 5 uploads + 5 lists + 5 deletes", sum)
	}

	before := make([]cloudsim.CallCounts, len(recs))
	for i, rec := range recs {
		before[i] = rec.Counts()
	}
	hold()
	sum = cloudsim.CallCounts{}
	for i, rec := range recs {
		c := rec.Counts().Minus(before[i])
		want := cloudsim.CallCounts{}
		if first.round.won[i] {
			want = cloudsim.CallCounts{Upload: 1, List: 1, Delete: 1}
		}
		if c != want {
			t.Errorf("second hold: cloud c%d saw %+v, want %+v", i, c, want)
		}
		sum = sum.Plus(c)
	}
	if sum.Total() != 9 {
		t.Errorf("second acquire+release = %+v, want 3 uploads + 3 lists + 3 deletes", sum)
	}
	if n := reg.Counter("qlock.widened").Value(); n != 0 {
		t.Errorf("qlock.widened = %d, want 0", n)
	}
	if n := reg.Counter("qlock.degraded_rounds").Value(); n != 0 {
		t.Errorf("a quorum-only round counted as degraded (%d)", n)
	}
	if g := reg.Gauge("qlock.admitted_clouds").Value(); g != 5 {
		t.Errorf("qlock.admitted_clouds = %v after a quorum-only round, want 5", g)
	}
	// A second release has nothing on record and sends nothing.
	total := 0
	for _, rec := range recs {
		total += rec.Counts().Total()
	}
	if err := first.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		total -= rec.Counts().Total()
	}
	if total != 0 {
		t.Errorf("a repeated release sent %d requests, want 0", -total)
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
// still without listing. The failing delete is armed on a cloud of the
// winning quorum, whose flag stays there until the release: the other
// clouds' flags were shed and the refresh has no old flag there to
// delete.
func TestReleaseDeletesNameARefreshLeftBehind(t *testing.T) {
	clouds, recs := recordedClouds(5)
	wrapped := make([]*failingDeletes, len(clouds))
	for i := range clouds {
		wrapped[i] = &failingDeletes{Interface: clouds[i], failed: make(map[string]bool)}
		clouds[i] = wrapped[i]
	}
	cfg := fastCfg("d1")
	cfg.RefreshInterval = time.Hour // refreshes are driven by hand below
	m := New(clouds, cfg)
	lock, err := m.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	faulty := wrapped[slices.Index(lock.round.won, true)]
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
	if got := names[faulty.Name()]; len(got) != 2 {
		t.Fatalf("%s holds %v after the failed cleanup, want the old and the new flag", faulty.Name(), got)
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
