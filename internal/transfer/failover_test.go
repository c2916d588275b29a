package transfer

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/erasure"
	"unidrive/internal/health"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

// guardedRig is a directRig variant with the full resilience stack
// per cloud: Guard(Recorder(Flaky(Direct))). The Recorder sits inside
// the Guard, so breaker rejections never reach it — its counts are
// exactly the requests that went out to the (simulated) network.
type guardedRig struct {
	stores  []*cloudsim.Store
	flaky   []*cloudsim.Flaky
	recs    []*cloudsim.Recorder
	tracker *health.Tracker
	reg     *obs.Registry
	engine  *Engine
	names   []string
}

func newGuardedRig(t *testing.T, n int, cfg Config) *guardedRig {
	t.Helper()
	r := &guardedRig{reg: obs.NewRegistry()}
	r.tracker = health.NewTracker(health.Config{
		TripOnUnavailable: true,
		Clock:             vclock.Real{},
		Seed:              7,
		Obs:               r.reg,
	})
	var clouds []cloud.Interface
	for i := 0; i < n; i++ {
		st := cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)
		fl := cloudsim.NewFlaky(cloudsim.NewDirect(st), 0, int64(i+1))
		rec := cloudsim.NewRecorder(fl)
		r.stores = append(r.stores, st)
		r.flaky = append(r.flaky, fl)
		r.recs = append(r.recs, rec)
		r.names = append(r.names, st.Name())
		clouds = append(clouds, r.tracker.Wrap(rec))
	}
	cfg.Health = r.tracker
	cfg.Obs = r.reg
	r.engine = New(clouds, sched.NewProber(0), cfg)
	return r
}

// afterTrip orders a test's uploads around a breaker trip: the dying
// cloud's first answered upload closes tripped (the Guard beneath it
// has reported the outage by then), and every other cloud's uploads
// wait for that.
type afterTrip struct {
	cloud.Interface
	dying   bool
	tripped chan struct{}
	once    *sync.Once
}

func (a *afterTrip) Upload(ctx context.Context, path string, data []byte) error {
	if a.dying {
		err := a.Interface.Upload(ctx, path, data)
		a.once.Do(func() { close(a.tripped) })
		return err
	}
	select {
	case <-a.tripped:
	case <-ctx.Done():
		return ctx.Err()
	}
	return a.Interface.Upload(ctx, path, data)
}

// TestUploadRoutesAroundOpenBreaker is the upload acceptance case:
// with one of four clouds in full outage, a k=4, n=8 upload must
// complete; after the breaker trips, no request may reach the dead
// cloud, and its blocks must land on the healthy clouds within the
// per-cloud placement bound.
func TestUploadRoutesAroundOpenBreaker(t *testing.T) {
	p := sched.Params{N: 4, K: 4, Kr: 2, Ks: 2} // fair 2, normal 8, max 3/cloud
	r := newGuardedRig(t, 4, Config{})
	r.flaky[3].SetDown(true)
	// The case is an outage detected before the healthy clouds finish
	// their fair shares. Left to the scheduler's timing, an instant
	// healthy cloud can finish first and take over-provisioned extras
	// into the room the dead cloud's blocks need (3 clouds x 3 = 9
	// slots for 8 normal blocks) — a different, also legal, outcome.
	tripped, once := make(chan struct{}), new(sync.Once)
	var ordered []cloud.Interface
	for i, name := range r.names {
		ordered = append(ordered, &afterTrip{Interface: r.engine.clouds[name], dying: i == 3, tripped: tripped, once: once})
	}
	r.engine = New(ordered, sched.NewProber(0), r.engine.cfg)

	seg := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(seg)
	coder, err := erasure.NewCoder(p.K, p.CodeN())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.NewUploadPlan(p, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "seg1",
		coderSource(t, coder, seg), nil); err != nil {
		t.Fatalf("upload with one dead cloud: %v", err)
	}
	if !plan.Available() {
		t.Fatal("plan not available")
	}
	if !plan.Reliable() {
		t.Fatal("plan not reliable: live clouds lack their fair share")
	}

	// The dead cloud saw only the requests launched before its first
	// outage error tripped the breaker (its initial fair share at
	// most); everything after the trip was rejected locally.
	if got := r.recs[3].Counts().Total(); got < 1 || got > p.FairShare() {
		t.Errorf("dead cloud saw %d requests, want 1..%d (pre-trip only)", got, p.FairShare())
	}
	if st := r.tracker.Breaker("c3").State(); st != health.Open {
		t.Errorf("breaker state = %v, want Open", st)
	}
	if n := r.reg.Counter("health.breaker.c3.opened").Value(); n != 1 {
		t.Errorf("opened transitions = %d, want 1", n)
	}

	// All 8 normal blocks landed on the three healthy clouds without
	// breaking the per-cloud bound.
	placement := plan.Placement()
	perCloud := make(map[string]int)
	normal := 0
	for b, c := range placement {
		perCloud[c]++
		if b < p.NormalBlocks() {
			normal++
		}
	}
	if perCloud["c3"] != 0 {
		t.Errorf("dead cloud holds %d blocks", perCloud["c3"])
	}
	for c, n := range perCloud {
		if n > p.MaxPerCloud() {
			t.Errorf("%s holds %d blocks, above MaxPerCloud=%d", c, n, p.MaxPerCloud())
		}
	}
	if normal != p.NormalBlocks() {
		t.Errorf("%d of %d normal blocks placed", normal, p.NormalBlocks())
	}
	if n := r.reg.Counter("transfer.up.failover_blocks").Value(); n < int64(p.FairShare()) {
		t.Errorf("failover_blocks = %d, want >= %d", n, p.FairShare())
	}

	// The blocks physically exist where the placement claims, with
	// the right content.
	for blockID, cloudName := range placement {
		var store *cloudsim.Store
		for _, s := range r.stores {
			if s.Name() == cloudName {
				store = s
			}
		}
		data, err := cloudsim.NewDirect(store).Download(context.Background(),
			r.engine.BlockPath("seg1", blockID))
		if err != nil {
			t.Fatalf("block %d missing on %s: %v", blockID, cloudName, err)
		}
		if want := coder.EncodeBlocks(seg, []int{blockID})[0]; !bytes.Equal(data, want) {
			t.Fatalf("block %d content mismatch", blockID)
		}
	}
}

// TestHedgedDownloadWithStalledCloud is the download acceptance case:
// one cloud accepts requests and never answers. Each stalled block
// must receive exactly one duplicate (hedged) request on a spare
// cloud, the duplicates win, the stalled losers are cancelled, and
// the download completes at the healthy clouds' latency instead of
// hanging on the stall.
func TestHedgedDownloadWithStalledCloud(t *testing.T) {
	r := newGuardedRig(t, 3, Config{
		HedgeFallbackDelay: 50 * time.Millisecond,
	})

	// Two blocks, each replicated on the (to-be) stalled cloud c0 and
	// one healthy spare; k=2 means both are needed.
	content := map[int][]byte{0: []byte("block-zero"), 1: []byte("block-one")}
	locations := map[int][]string{0: {"c0", "c1"}, 1: {"c0", "c2"}}
	ctx := context.Background()
	for blockID, clouds := range locations {
		for _, name := range clouds {
			for i, s := range r.stores {
				if s.Name() == name {
					if err := cloudsim.NewDirect(r.stores[i]).Upload(ctx,
						r.engine.BlockPath("segH", blockID), content[blockID]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	r.flaky[0].SetStall(true)

	dplan, err := sched.NewDownloadPlan(2, locations)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	blocks, err := r.engine.DownloadSegment(ctx, dplan, "segH")
	if err != nil {
		t.Fatalf("hedged download: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("download took %v: latency not bounded by healthy clouds", elapsed)
	}
	for blockID, want := range content {
		if !bytes.Equal(blocks[blockID], want) {
			t.Errorf("block %d = %q, want %q", blockID, blocks[blockID], want)
		}
	}

	// Exactly one duplicate per stalled block, and the stalled losers
	// were cancelled (their calls returned via ctx, counted below).
	if n := r.reg.Counter("transfer.down.hedges").Value(); n != 2 {
		t.Errorf("hedges issued = %d, want 2", n)
	}
	if n := r.reg.Counter("transfer.down.hedge_wins").Value(); n != 2 {
		t.Errorf("hedge_wins = %d, want 2", n)
	}
	if n := r.reg.Counter("transfer.down.hedge_losses").Value(); n != 0 {
		t.Errorf("hedge_losses = %d, want 0", n)
	}
	if n := r.reg.Counter("transfer.down.hedge_cancelled").Value(); n != 2 {
		t.Errorf("hedge_cancelled (drained losers) = %d, want 2", n)
	}
	// The stalled cloud saw exactly one request per block (no retry
	// storm), the spares exactly one each.
	if got := r.recs[0].Counts().Download; got != 2 {
		t.Errorf("stalled cloud download calls = %d, want 2", got)
	}
	if got := r.flaky[0].Stalls(); got != 2 {
		t.Errorf("stalls entered = %d, want 2", got)
	}
	for i := 1; i <= 2; i++ {
		if got := r.recs[i].Counts().Download; got != 1 {
			t.Errorf("spare c%d download calls = %d, want 1", i, got)
		}
	}
	// The stall is a latency fault, not a health verdict: cancelled
	// requests must not have tripped c0's breaker.
	if st := r.tracker.Breaker("c0").State(); st != health.Closed {
		t.Errorf("stalled cloud breaker = %v, want Closed (cancellations are not failures)", st)
	}
}
