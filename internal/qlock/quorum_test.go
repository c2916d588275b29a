package qlock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

// valve holds the calls that reach it until the test opens it; a held
// call whose context ends first fails with the context's error.
type valve struct {
	open    chan struct{}
	arrived chan struct{} // one per call held
	// deaf holds a call past its context's end, as a hung request does,
	// and lets it through once opened.
	deaf bool
}

func newValve() *valve {
	// arrived has room for more calls than any test here holds, so a held
	// call never blocks on announcing itself.
	return &valve{open: make(chan struct{}), arrived: make(chan struct{}, 64)}
}

// pass holds the call; a nil valve lets it through unless ctx is done.
func (v *valve) pass(ctx context.Context) error {
	if v == nil {
		return ctx.Err()
	}
	v.arrived <- struct{}{}
	if v.deaf {
		<-v.open
		return nil
	}
	select {
	case <-v.open:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// await waits until n calls have reached the valve.
func (v *valve) await(t *testing.T, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-v.arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d %s arrived", i, n, what)
		}
	}
}

// heldCloud is a recorded direct cloud that honours its context as a
// remote cloud does — a call whose context is done never reaches the
// store — and whose flag uploads and lock-directory lists a valve can
// hold.
type heldCloud struct {
	*cloudsim.Recorder
	uploads, lists *valve
}

func (c *heldCloud) Upload(ctx context.Context, path string, data []byte) error {
	if err := c.uploads.pass(ctx); err != nil {
		return err
	}
	return c.Recorder.Upload(ctx, path, data)
}

func (c *heldCloud) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	if err := c.lists.pass(ctx); err != nil {
		return nil, err
	}
	return c.Recorder.List(ctx, path)
}

func (c *heldCloud) Delete(ctx context.Context, path string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.Recorder.Delete(ctx, path)
}

// heldClouds builds n held clouds with every valve open; bare lists
// the recorders beneath them, for the test's own look at the stores.
func heldClouds(n int) (clouds []cloud.Interface, held []*heldCloud, bare []cloud.Interface) {
	for i := 0; i < n; i++ {
		h := &heldCloud{Recorder: cloudsim.NewRecorder(cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)))}
		clouds, held, bare = append(clouds, h), append(held, h), append(bare, h.Recorder)
	}
	return clouds, held, bare
}

// acquireWithin runs Acquire and fails the test if it does not return
// in time.
func acquireWithin(t *testing.T, m *Manager) *Lock {
	t.Helper()
	type result struct {
		lock *Lock
		err  error
	}
	done := make(chan result, 1)
	go func() {
		l, err := m.Acquire(context.Background())
		done <- result{l, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.lock
	case <-time.After(10 * time.Second):
		t.Fatal("Acquire did not return with a quorum of clouds answering")
		return nil
	}
}

// With two of five clouds holding their flag uploads, the round is won
// at the third cloud held: Acquire does not wait for the slowest two.
func TestAcquireReturnsAtTheQuorum(t *testing.T) {
	clouds, held, bare := heldClouds(5)
	parked := newValve()
	held[3].uploads, held[4].uploads = parked, parked
	reg := obs.NewRegistry()
	cfg := fastCfg(newWorld(), "d1")
	cfg.Expiry = time.Hour // no renewal inside the hold
	cfg.Obs = reg
	m := New(clouds, cfg)

	lock := acquireWithin(t, m)
	parked.await(t, 2, "parked flag uploads")
	if !lock.Valid() {
		t.Fatal("lock won at the quorum is not valid")
	}
	if n := reg.Counter("qlock.rounds").Value(); n != 1 {
		t.Errorf("qlock.rounds = %d, want 1", n)
	}
	if n := reg.Snapshot().Histograms["qlock.acquire_ms"].Count; n != 1 {
		t.Errorf("qlock.acquire_ms has %d observations, want 1 per Acquire", n)
	}
	names := lockDirNames(t, bare)
	for i, c := range bare {
		want := 1
		if i >= 3 {
			want = 0 // still parked
		}
		if got := len(names[c.Name()]); got != want {
			t.Errorf("%s holds %d flags at the win, want %d", c.Name(), got, want)
		}
	}
	close(parked.open)
	if err := lock.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Release joins the winning round's stragglers before it deletes by
// name: flags that land after the win are deleted, not orphaned, and
// every cloud sees exactly one upload, one list and one delete.
func TestReleaseWaitsForParkedUploads(t *testing.T) {
	clouds, held, bare := heldClouds(5)
	parked := newValve()
	held[3].uploads, held[4].uploads = parked, parked
	cfg := fastCfg(newWorld(), "d1")
	cfg.Expiry = time.Hour // no renewal inside the hold
	m := New(clouds, cfg)
	lock := acquireWithin(t, m)
	parked.await(t, 2, "parked flag uploads")

	released := make(chan error, 1)
	go func() { released <- lock.Release(context.Background()) }()
	select {
	case <-released:
		t.Error("Release returned with two flag uploads still parked")
		released <- nil
	case <-time.After(50 * time.Millisecond):
	}
	close(parked.open)
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Release did not return after the uploads were let go")
	}
	for _, h := range held {
		if got, want := h.Counts(), (cloudsim.CallCounts{Upload: 1, List: 1, Delete: 1}); got != want {
			t.Errorf("%s saw %+v, want %+v", h.Name(), got, want)
		}
	}
	if left := lockDirNames(t, bare); len(left) != 0 {
		t.Errorf("flags left after release: %v", left)
	}
}

// A Release whose deadline passes while a straggler hangs returns at
// the deadline, having deleted the quorum's flags, as core gives up on
// a release after ReleaseTimeout. Once the hung straggler ends, its
// late flag is gone — its chain sheds it, the round having been won
// without it — and the hold won next keeps its flags on the clouds
// that won it: what the first hold's round deletes late is only its
// own. The second hold's own Release leaves no flag.
func TestAbandonedReleaseSparesTheNextHold(t *testing.T) {
	for _, op := range []string{"upload", "list"} {
		t.Run("hung "+op, func(t *testing.T) { abandonRelease(t, op) })
	}
}

func abandonRelease(t *testing.T, op string) {
	clouds, held, bare := heldClouds(5)
	hung := newValve()
	hung.deaf = true
	if op == "upload" {
		held[4].uploads = hung
	} else {
		held[4].lists = hung
	}
	clk := newWorld()
	cfg := fastCfg(clk, "d1")
	cfg.Expiry = time.Hour // no renewal inside the holds
	m := New(clouds, cfg)

	first := acquireWithin(t, m)
	hung.await(t, 1, "hung "+op)
	ctx, cancel := vclock.WithTimeout(clk, context.Background(), 20*time.Millisecond)
	defer cancel()
	released := make(chan error, 1)
	go func() { released <- first.Release(ctx) }()
	<-ctx.Done()
	// The second hold asks every cloud, as a hold after a lost round
	// does, so that it meets the straggler on the hung cloud (a hold
	// after a won one asks only the clouds that won it).
	m.mu.Lock()
	m.preferred = nil
	m.mu.Unlock()
	second := acquireWithin(t, m)
	hung.await(t, 1, "second hung "+op)
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		close(hung.open)
		t.Fatal("Release did not return at its deadline with a straggler hung")
	}
	names := lockDirNames(t, bare)
	for _, c := range bare[:4] {
		for _, n := range names[c.Name()] {
			if n == first.name {
				t.Errorf("%s keeps the released hold's flag", c.Name())
			}
		}
	}
	close(hung.open)
	<-first.round.chains.Done()
	<-second.round.chains.Done()

	if second.round.won[4] {
		t.Fatal("the second hold was won on the hung cloud")
	}
	names = lockDirNames(t, bare)
	for j, c := range bare {
		found := false
		for _, n := range names[c.Name()] {
			found = found || n == second.name
			if n == first.name {
				t.Errorf("%s keeps the first hold's flag after its chain ended", c.Name())
			}
		}
		if won := second.round.won[j]; found != won {
			t.Errorf("%s holds the second hold's flag: %v, want %v (whether the hold was won there)", c.Name(), found, won)
		}
	}
	if err := second.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	if left := lockDirNames(t, bare); len(left) != 0 {
		t.Errorf("flags left after the second release: %v", left)
	}
}

// A round is lost as soon as the clouds still out cannot make up a
// quorum — here at the third contended list, with two uploads parked —
// and its withdraw deletes the flags those uploads land afterwards.
func TestLostRoundWithdrawsLateFlags(t *testing.T) {
	clouds, held, bare := heldClouds(5)
	foreign := cloud.JoinPath(DefaultLockDir, "lock_other_1.1")
	for _, c := range bare[:3] {
		if err := c.Upload(context.Background(), foreign, nil); err != nil {
			t.Fatal(err)
		}
	}
	parked := newValve()
	held[3].uploads, held[4].uploads = parked, parked
	reg := obs.NewRegistry()
	clk := newWorld()
	cfg := fastCfg(clk, "d1")
	cfg.Obs = reg
	m := New(clouds, cfg)

	done := make(chan error, 1)
	go func() {
		// One round: the deadline ends its first backoff.
		_, err := acquireFor(m, backoffBase/8)
		done <- err
	}()
	parked.await(t, 2, "parked flag uploads")
	for i := 0; reg.Counter("qlock.backoffs").Value() == 0; i++ {
		if i == 10 {
			close(parked.open)
			t.Fatal("the round was not decided lost while two clouds were still out")
		}
		clk.Sleep(time.Millisecond)
	}
	close(parked.open)
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Acquire did not return")
	}
	for name, got := range lockDirNames(t, bare) {
		for _, n := range got {
			if ownedBy(n, "d1") {
				t.Errorf("%s keeps the withdrawn flag %s", name, n)
			}
		}
	}
	for _, h := range held[3:] {
		if got := h.Counts(); got.Upload != 1 || got.Delete != 1 {
			t.Errorf("%s saw %+v, want the late flag uploaded and deleted", h.Name(), got)
		}
	}
}

// An acquisition cancelled while its lists are out withdraws with a
// context of its own: over a cloud that honours cancellation, deleting
// with the caller's cancelled context would leave every flag behind,
// and every other device would wait out Expiry.
func TestCancelledAcquireWithdrawsItsFlags(t *testing.T) {
	clouds, held, bare := heldClouds(5)
	lists := newValve() // never opened: the lists end with the context
	for _, h := range held {
		h.lists = lists
	}
	m := New(clouds, fastCfg(newWorld(), "waiter"))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(ctx)
		done <- err
	}()
	lists.await(t, len(clouds), "lock-directory lists")
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Acquire did not return after cancellation")
	}
	for name, got := range lockDirNames(t, bare) {
		for _, n := range got {
			if ownedBy(n, "waiter") {
				t.Errorf("%s keeps the cancelled acquisition's flag %s", name, n)
			}
		}
	}
}

// TestMutualExclusionStress over clouds that delay every request by a
// seeded 0–3 ms, so a round's chains finish out of order and its
// stragglers run beside other devices' rounds. No two holds overlap,
// and no flag outlives the last release.
func TestMutualExclusionStressOutOfOrder(t *testing.T) {
	clk := newWorld()
	clouds := make([]cloud.Interface, 5)
	for i := range clouds {
		f := cloudsim.NewFlaky(cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)), 0, int64(i+7))
		f.SetClock(clk)
		f.SetLatency(0, 3*time.Millisecond)
		clouds[i] = f
	}
	const devices, rounds = 4, 5
	var inCritical, violations, acquired atomic.Int32
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			m := New(clouds, fastCfg(clk, fmt.Sprintf("dev%d", d)))
			for r := 0; r < rounds; r++ {
				ctx, cancel := vclock.WithTimeout(clk, context.Background(), 10*time.Minute)
				l, err := m.Acquire(ctx)
				if err != nil {
					cancel()
					t.Errorf("dev%d round %d: %v", d, r, err)
					return
				}
				if inCritical.Add(1) != 1 {
					violations.Add(1)
				}
				clk.Sleep(20 * time.Millisecond) // critical section
				inCritical.Add(-1)
				acquired.Add(1)
				if err := l.Release(ctx); err != nil {
					t.Errorf("release: %v", err)
				}
				cancel()
			}
		}(d)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual exclusion violations", v)
	}
	if got := acquired.Load(); got != devices*rounds {
		t.Fatalf("acquired %d times, want %d", got, devices*rounds)
	}
	if left := lockDirNames(t, clouds); len(left) != 0 {
		t.Errorf("flags left after every release: %v", left)
	}
}
