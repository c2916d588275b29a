package transfer

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

// simWorld drives shaped clouds on a manual clock: a request takes
// latency + size ÷ rate of virtual time on its connection, and run
// steps the clock from completion to completion, each time only after
// everybody has finished reacting to the previous one — so virtual
// time passes only while requests are the one thing anybody waits for,
// and the schedule that comes out does not depend on how fast the
// test's goroutines happen to run.
type simWorld struct {
	clk *vclock.Manual

	mu       sync.Mutex
	inFlight map[int]time.Time // request -> virtual completion time
	next     int
	finished int // requests answered
	armed    int // dispatcher loop iterations that reached their wait
	starts   []simStart
}

// dispatcherClock is the clock handed to the engine: the batch
// dispatcher arms its hedge timer once per loop iteration, right
// before it blocks for the next result, which is how the world learns
// that it has finished reacting.
type dispatcherClock struct {
	*vclock.Manual
	w *simWorld
}

func (c dispatcherClock) After(d time.Duration) <-chan time.Time {
	c.w.mu.Lock()
	c.w.armed++
	c.w.mu.Unlock()
	return c.Manual.After(d)
}

// simStart logs one block download as it was handed to a cloud.
type simStart struct {
	cloud  string
	path   string
	at     time.Duration // since the world's epoch
	finish time.Duration
}

var simEpoch = time.Unix(1_700_000_000, 0)

func newSimWorld() *simWorld {
	return &simWorld{clk: vclock.NewManual(simEpoch), inFlight: make(map[int]time.Time)}
}

// simCloud is one shaped provider over an in-memory store.
type simCloud struct {
	cloud.Interface
	w       *simWorld
	latency time.Duration
	rate    float64 // bytes/second per connection
}

func (w *simWorld) cloud(name string, latency time.Duration, rate float64) *simCloud {
	return &simCloud{Interface: cloudsim.NewDirect(cloudsim.NewStore(name, 0)), w: w, latency: latency, rate: rate}
}

func (c *simCloud) cost(size int) time.Duration {
	return c.latency + time.Duration(float64(size)/c.rate*float64(time.Second))
}

func (c *simCloud) Download(ctx context.Context, path string) ([]byte, error) {
	data, err := c.Interface.Download(ctx, path)
	if err != nil {
		return nil, err
	}
	return data, c.spend(ctx, path, c.cost(len(data)))
}

func (c *simCloud) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	entries, err := c.Interface.List(ctx, path)
	if err != nil {
		return nil, err
	}
	return entries, c.spend(ctx, path, c.latency)
}

// spend keeps the request in flight for d of virtual time.
func (c *simCloud) spend(ctx context.Context, path string, d time.Duration) (err error) {
	w := c.w
	w.mu.Lock()
	now := w.clk.Now()
	id := w.next
	w.next++
	w.inFlight[id] = now.Add(d)
	w.starts = append(w.starts, simStart{cloud: c.Name(), path: path, at: now.Sub(simEpoch), finish: now.Add(d).Sub(simEpoch)})
	timer := w.clk.After(d)
	w.mu.Unlock()
	select {
	case <-timer:
	case <-ctx.Done():
		err = ctx.Err()
	}
	w.mu.Lock()
	delete(w.inFlight, id)
	w.finished++
	w.mu.Unlock()
	return err
}

// run executes f while stepping the clock from completion to
// completion, and returns the virtual time f took. settled reports,
// under w.mu, that nobody is still reacting to the last step.
func (w *simWorld) run(f func(), settled func() bool) time.Duration {
	start := w.clk.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	for {
		select {
		case <-done:
			return w.clk.Now().Sub(start)
		case <-time.After(100 * time.Microsecond): // poll a condition, not the passage of time
		}
		w.mu.Lock()
		var due time.Time
		if settled() {
			for _, at := range w.inFlight {
				if due.IsZero() || at.Before(due) {
					due = at
				}
			}
		}
		w.mu.Unlock()
		if !due.IsZero() {
			w.clk.Advance(due.Sub(w.clk.Now()))
		}
	}
}

// sequential is run for an f that issues one request at a time: the
// request being in flight is all there is to wait for.
func (w *simWorld) sequential(f func()) time.Duration {
	return w.run(f, func() bool { return true })
}

// batch runs one DownloadBatch. The dispatcher has finished reacting
// when it has taken every answered request off its result channel and
// reached its wait again (one more loop iteration armed than results
// consumed), and every transfer it launched has reached its cloud.
func (r *simRig) batch(items []DownloadItem) (took time.Duration, err error) {
	w := r.w
	w.mu.Lock()
	w.finished, w.armed = 0, 0
	w.mu.Unlock()
	active := r.reg.Gauge("transfer.active")
	took = w.run(func() { _, err = r.engine.DownloadBatch(context.Background(), items) },
		func() bool { return w.armed == w.finished+1 && len(w.inFlight) == int(active.Value()) })
	return took, err
}

const simBlock = 1 << 20

// simRig is five shaped clouds — three fast, two slow — behind Probing
// wrappers, with an engine on the world's clock.
type simRig struct {
	w      *simWorld
	clouds map[string]*simCloud
	probed map[string]cloud.Interface
	reg    *obs.Registry
	engine *Engine
}

func newSimRig() *simRig {
	w := newSimWorld()
	r := &simRig{w: w, clouds: make(map[string]*simCloud), probed: make(map[string]cloud.Interface), reg: obs.NewRegistry()}
	prober := sched.NewProber(0)
	var clouds []cloud.Interface
	for _, c := range []*simCloud{
		w.cloud("fast1", 10*time.Millisecond, 10e6),
		w.cloud("fast2", 12*time.Millisecond, 10e6),
		w.cloud("fast3", 14*time.Millisecond, 10e6),
		w.cloud("slow1", 5*time.Millisecond, 1e6),
		w.cloud("slow2", 6*time.Millisecond, 1e6),
	} {
		r.clouds[c.Name()] = c
		r.probed[c.Name()] = NewProbing(c, prober, w.clk)
		clouds = append(clouds, r.probed[c.Name()])
	}
	// Hedging stays out of the way: its deadline would come from the
	// block-latency histogram the registry brings along.
	r.engine = New(clouds, prober, Config{Clock: dispatcherClock{w.clk, w}, Obs: r.reg, HedgeMinSamples: 1 << 30})
	return r
}

// put stores one coded block of a segment on a cloud.
func (r *simRig) put(t *testing.T, cloudName, segID string, blockID int, size int) {
	t.Helper()
	if err := r.clouds[cloudName].Interface.Upload(context.Background(), r.engine.BlockPath(segID, blockID), make([]byte, size)); err != nil {
		t.Fatal(err)
	}
}

// warm gives the prober what an earlier pass would have left: a few
// stamp round trips and one block per cloud.
func (r *simRig) warm(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	for name := range r.probed {
		r.put(t, name, "warm", 0, simBlock)
		if err := r.clouds[name].Interface.Upload(ctx, "stamp", make([]byte, 33)); err != nil {
			t.Fatal(err)
		}
	}
	r.w.sequential(func() {
		for _, c := range r.probed {
			for i := 0; i < 3; i++ {
				if _, err := c.Download(ctx, "stamp"); err != nil {
					t.Error(err)
				}
			}
			if _, err := c.Download(ctx, r.engine.BlockPath("warm", 0)); err != nil {
				t.Error(err)
			}
		}
	})
	r.w.starts = nil
}

// segment places a K=3 segment: three blocks on each fast cloud (so
// that no segment has to wait for one particular cloud) and one on
// each slow one, any three of which decode.
func (r *simRig) segment(t *testing.T, segID string) DownloadItem {
	t.Helper()
	locations := make(map[int][]string)
	id := 0
	for _, name := range []string{"fast1", "fast2", "fast3", "fast1", "fast2", "fast3", "fast1", "fast2", "fast3", "slow1", "slow2"} {
		r.put(t, name, segID, id, simBlock)
		locations[id] = []string{name}
		id++
	}
	plan, err := sched.NewDownloadPlan(3, locations)
	if err != nil {
		t.Fatal(err)
	}
	return DownloadItem{Plan: plan, SegID: segID, Size: simBlock}
}

// TestDownloadBatchNearFluidOptimum: with estimates to plan on, a
// 10-segment batch is served by the fast clouds' fifteen connections in
// two waves; a single block parked on a slow cloud would take five
// times as long as the whole batch.
func TestDownloadBatchNearFluidOptimum(t *testing.T) {
	r := newSimRig()
	r.warm(t)
	var items []DownloadItem
	for i := 0; i < 10; i++ {
		items = append(items, r.segment(t, fmt.Sprintf("seg%d", i)))
	}
	// The fluid optimum: every connection of every cloud busy until the
	// last byte, at its per-block cost.
	var rate float64
	for _, c := range r.clouds {
		rate += DefaultConnsPerCloud * simBlock / c.cost(simBlock).Seconds()
	}
	optimum := time.Duration(float64(len(items)*3*simBlock) / rate * float64(time.Second))

	start := r.w.clk.Now().Sub(simEpoch)
	took, err := r.batch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if !it.Plan.Done() {
			t.Fatalf("segment %d incomplete", i)
		}
	}
	if limit := optimum * 5 / 4; took > limit {
		t.Errorf("batch took %v, fluid optimum %v: want within 1.25x (%v)", took, optimum, limit)
	}
	if len(r.w.starts) != 30 {
		t.Errorf("%d block downloads for 10 segments of K=3, want 30 (no duplicate fetches)", len(r.w.starts))
	}
	for _, s := range r.w.starts {
		// No block may be started that the batch then has to wait for:
		// its finish, known when it starts, stays inside the bound.
		if s.finish-start > optimum*5/4 {
			t.Errorf("block %s started on %s at +%v finishing +%v, past the batch's bound %v",
				s.path, s.cloud, s.at-start, s.finish-start, optimum*5/4)
		}
	}
}

// TestDownloadSoleHolderStartsAtOnce: a segment whose K-th block lives
// only on a slow cloud needs that cloud whatever the estimates say, and
// the sooner it starts the less the batch waits for it.
func TestDownloadSoleHolderStartsAtOnce(t *testing.T) {
	r := newSimRig()
	r.warm(t)
	var items []DownloadItem
	for i := 0; i < 10; i++ {
		if i != 7 {
			items = append(items, r.segment(t, fmt.Sprintf("seg%d", i)))
			continue
		}
		locations := map[int][]string{0: {"fast1"}, 1: {"fast2"}, 2: {"slow2"}}
		for id, holders := range locations {
			r.put(t, holders[0], "seg7", id, simBlock)
		}
		plan, err := sched.NewDownloadPlan(3, locations)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, DownloadItem{Plan: plan, SegID: "seg7", Size: simBlock})
	}
	start := r.w.clk.Now().Sub(simEpoch)
	if _, err := r.batch(items); err != nil {
		t.Fatal(err)
	}
	if !items[7].Plan.Done() {
		t.Fatal("the segment that needs the slow cloud did not complete")
	}
	slow := 0
	for _, s := range r.w.starts {
		if s.cloud != "slow1" && s.cloud != "slow2" {
			continue
		}
		slow++
		if s.cloud != "slow2" || s.path != r.engine.BlockPath("seg7", 2) {
			t.Errorf("block %s started on %s: only seg7's sole-holder block belongs on a slow cloud", s.path, s.cloud)
		}
		if s.at != start {
			t.Errorf("sole-holder block started at +%v, want in the first dispatch", s.at-start)
		}
	}
	if slow != 1 {
		t.Errorf("%d blocks on slow clouds, want exactly the one nobody else holds", slow)
	}
}

// TestControlTrafficYieldsLatencyRanking: before the first block ever
// moves, the stamps a pass starts with must already rank the clouds —
// by latency — and count as estimates.
func TestControlTrafficYieldsLatencyRanking(t *testing.T) {
	r := newSimRig()
	ctx := context.Background()
	for name := range r.probed {
		if err := r.clouds[name].Interface.Upload(ctx, "meta/stamp", make([]byte, 33)); err != nil {
			t.Fatal(err)
		}
	}
	r.w.sequential(func() {
		for _, c := range r.probed {
			if _, err := c.Download(ctx, "meta/stamp"); err != nil {
				t.Error(err)
			}
			if _, err := c.List(ctx, "meta"); err != nil {
				t.Error(err)
			}
		}
	})
	prober := r.engine.Prober()
	names := r.engine.CloudNames()
	for _, n := range names {
		got, ok := prober.Estimate(n, sched.Down, 0)
		if want := r.clouds[n].latency; !ok || got < want || got > want+time.Millisecond {
			t.Errorf("%s: estimate %v (ok=%v), want its latency %v", n, got, ok, want)
		}
	}
	want := []string{"slow1", "slow2", "fast1", "fast2", "fast3"}
	got := prober.Rank(names, sched.Down, simBlock)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank = %v, want latency order %v", got, want)
		}
	}
}
