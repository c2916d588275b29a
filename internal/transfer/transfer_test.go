package transfer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/erasure"
	"unidrive/internal/netsim"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

var paperParams = sched.Params{N: 5, K: 3, Kr: 3, Ks: 2}

// directRig builds five unshaped clouds plus an engine.
type directRig struct {
	stores []*cloudsim.Store
	flaky  []*cloudsim.Flaky
	engine *Engine
	names  []string
}

func newDirectRig(t *testing.T, n int) *directRig {
	t.Helper()
	r := &directRig{}
	var clouds []cloud.Interface
	for i := 0; i < n; i++ {
		st := cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)
		fl := cloudsim.NewFlaky(cloudsim.NewDirect(st), 0, int64(i+1))
		r.stores = append(r.stores, st)
		r.flaky = append(r.flaky, fl)
		r.names = append(r.names, st.Name())
		clouds = append(clouds, fl)
	}
	r.engine = New(clouds, sched.NewProber(0), Config{})
	return r
}

// coderSource builds a BlockSource over a coded segment.
func coderSource(t *testing.T, coder *erasure.Coder, segment []byte) BlockSource {
	t.Helper()
	return func(blockID int) ([]byte, error) {
		return coder.EncodeBlocks(segment, []int{blockID})[0], nil
	}
}

func paperCoder(t *testing.T) *erasure.Coder {
	t.Helper()
	c, err := erasure.NewCoder(paperParams.K, paperParams.CodeN())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUploadSegmentToReliability(t *testing.T) {
	r := newDirectRig(t, 5)
	seg := make([]byte, 3000)
	rand.New(rand.NewSource(1)).Read(seg)
	coder := paperCoder(t)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "seg1", coderSource(t, coder, seg), nil); err != nil {
		t.Fatal(err)
	}
	if ok := reliable(plan, r.names); !plan.Available() || !ok {
		t.Fatalf("plan state: available=%v reliable=%v", plan.Available(), ok)
	}
	// Every cloud holds exactly its fair share (no over-provisioning
	// needed: instant clouds all finish together).
	placement := plan.Placement()
	if len(placement) < paperParams.NormalBlocks() {
		t.Fatalf("placement has %d blocks, want >= %d", len(placement), paperParams.NormalBlocks())
	}
	// Blocks physically exist where the placement says.
	for blockID, cloudName := range placement {
		var store *cloudsim.Store
		for _, s := range r.stores {
			if s.Name() == cloudName {
				store = s
			}
		}
		d := cloudsim.NewDirect(store)
		data, err := d.Download(context.Background(), r.engine.BlockPath("seg1", blockID))
		if err != nil {
			t.Fatalf("block %d missing on %s: %v", blockID, cloudName, err)
		}
		want := coder.EncodeBlocks(seg, []int{blockID})[0]
		if !bytes.Equal(data, want) {
			t.Fatalf("block %d content mismatch", blockID)
		}
	}
}

// The predicate marks the availability instant and ends
// over-provisioning, not the batch: from there only normal blocks go
// out, and the plan finishes reliable.
func TestUploadPastAvailabilitySendsOnlyNormalBlocks(t *testing.T) {
	r := newDirectRig(t, 5)
	reg := obs.NewRegistry()
	r.engine = New(enginesClouds(r), sched.NewProber(0), Config{Obs: reg})
	seg := make([]byte, 900)
	rand.New(rand.NewSource(2)).Read(seg)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	extras := reg.Counter("sched.plan.overprov_assigned")
	extrasAtInstant, landedAtInstant := int64(-1), 0
	err = r.engine.UploadSegment(context.Background(), plan, "seg1",
		coderSource(t, paperCoder(t), seg), func() bool {
			if !plan.Available() {
				return false
			}
			extrasAtInstant, landedAtInstant = extras.Value(), len(plan.UploadedBlocks())
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if extrasAtInstant < 0 {
		t.Fatal("the batch returned without an availability instant")
	}
	if !reliable(plan, r.names) {
		t.Fatalf("the batch ended at %d blocks, short of reliability (%d landed at the instant)",
			len(plan.UploadedBlocks()), landedAtInstant)
	}
	if got := extras.Value(); got != extrasAtInstant {
		t.Fatalf("%d over-provisioned blocks handed out after the availability instant", got-extrasAtInstant)
	}
	// Extras only before K blocks landed: nowhere near the 10-block
	// over-provisioning ceiling.
	if got := len(plan.UploadedBlocks()); got > paperParams.NormalBlocks()+2 {
		t.Fatalf("uploaded %d blocks, want at most %d", got, paperParams.NormalBlocks()+2)
	}
	if got := reg.Counter("transfer.up.stragglers").Value(); got != int64(len(plan.UploadedBlocks())-landedAtInstant) {
		t.Fatalf("transfer.up.stragglers = %d, want the %d blocks that landed after the instant",
			got, len(plan.UploadedBlocks())-landedAtInstant)
	}
}

func TestUploadSurvivesCloudOutage(t *testing.T) {
	r := newDirectRig(t, 5)
	r.flaky[2].SetDown(true)
	seg := make([]byte, 1200)
	rand.New(rand.NewSource(3)).Read(seg)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "seg1",
		coderSource(t, paperCoder(t), seg), nil); err != nil {
		t.Fatal(err)
	}
	if !plan.Available() {
		t.Fatal("upload not available despite 4 live clouds")
	}
	if !reliable(plan, r.names, "c2") {
		t.Fatal("reliability over live clouds not reached")
	}
	if r.stores[2].FileCount() != 0 {
		t.Fatal("blocks landed on a down cloud")
	}
}

func TestUploadRetriesTransientFailures(t *testing.T) {
	r := newDirectRig(t, 5)
	for _, f := range r.flaky {
		// 30% failure per call; retried up to 3 times per block.
		*f = *cloudsim.NewFlaky(cloudsim.NewDirect(r.stores[0]), 0.3, 42)
	}
	// Rebuild rig cleanly instead: the above reuses store 0; do it properly.
	r = newDirectRig(t, 5)
	var clouds []cloud.Interface
	for i, st := range r.stores {
		clouds = append(clouds, cloudsim.NewFlaky(cloudsim.NewDirect(st), 0.3, int64(100+i)))
	}
	engine := New(clouds, sched.NewProber(0), Config{Clock: vclock.NewScaled(1000)})
	seg := make([]byte, 600)
	rand.New(rand.NewSource(4)).Read(seg)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.UploadSegment(context.Background(), plan, "seg1",
		coderSource(t, paperCoder(t), seg), nil); err != nil {
		t.Fatal(err)
	}
	if !reliable(plan, r.names) {
		t.Fatal("transient failures defeated the upload")
	}
}

func TestDownloadRoundTrip(t *testing.T) {
	r := newDirectRig(t, 5)
	seg := make([]byte, 5000)
	rand.New(rand.NewSource(5)).Read(seg)
	coder := paperCoder(t)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "segX",
		coderSource(t, coder, seg), nil); err != nil {
		t.Fatal(err)
	}

	locations := make(map[int][]string)
	for b, c := range plan.Placement() {
		locations[b] = []string{c}
	}
	dplan, err := sched.NewDownloadPlan(paperParams.K, locations)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := downloadSegment(context.Background(), r.engine, dplan, "segX")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < paperParams.K {
		t.Fatalf("downloaded %d blocks, want >= %d", len(blocks), paperParams.K)
	}
	got, err := coder.Decode(blocks, len(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatal("decoded segment differs from original")
	}
}

func TestDownloadWithOutagesUsesSurvivors(t *testing.T) {
	r := newDirectRig(t, 5)
	seg := make([]byte, 2000)
	rand.New(rand.NewSource(6)).Read(seg)
	coder := paperCoder(t)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "segX",
		coderSource(t, coder, seg), nil); err != nil {
		t.Fatal(err)
	}
	// Take down 2 of 5 clouds (Kr = 3 still satisfied).
	r.flaky[0].SetDown(true)
	r.flaky[4].SetDown(true)

	locations := make(map[int][]string)
	for b, c := range plan.Placement() {
		locations[b] = []string{c}
	}
	dplan, err := sched.NewDownloadPlan(paperParams.K, locations)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := downloadSegment(context.Background(), r.engine, dplan, "segX")
	if err != nil {
		t.Fatal(err)
	}
	got, err := coder.Decode(blocks, len(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatal("decode after outages failed")
	}
}

func TestDownloadUnrecoverable(t *testing.T) {
	r := newDirectRig(t, 5)
	seg := make([]byte, 800)
	rand.New(rand.NewSource(7)).Read(seg)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "segX",
		coderSource(t, paperCoder(t), seg), nil); err != nil {
		t.Fatal(err)
	}
	// Ks=2: a single cloud must NOT suffice. Down all but one.
	for i := 0; i < 4; i++ {
		r.flaky[i].SetDown(true)
	}
	locations := make(map[int][]string)
	for b, c := range plan.Placement() {
		locations[b] = []string{c}
	}
	dplan, err := sched.NewDownloadPlan(paperParams.K, locations)
	if err != nil {
		t.Fatal(err)
	}
	_, err = downloadSegment(context.Background(), r.engine, dplan, "segX")
	if !errors.Is(err, ErrSegmentUnrecoverable) {
		t.Fatalf("err = %v, want ErrSegmentUnrecoverable (security property)", err)
	}
}

func TestOverProvisioningFavoursFastClouds(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shaped test is unreliable under the race detector")
	}
	// Two fast clouds, two very slow ones: the fast pair must finish
	// their fair shares and take over-provisioned extras while the
	// slow pair grinds.
	clk := vclock.NewScaled(300)
	cfg := netsim.DefaultConfig(1)
	cfg.DegradedProb = 0
	profiles := []netsim.CloudProfile{
		{Name: "fast1", UpMbps: 80, DownMbps: 80, PerConnMbps: 40, Sigma: 0.0001},
		{Name: "fast2", UpMbps: 80, DownMbps: 80, PerConnMbps: 40, Sigma: 0.0001},
		{Name: "slow1", UpMbps: 2, DownMbps: 2, PerConnMbps: 1, Sigma: 0.0001},
		{Name: "slow2", UpMbps: 2, DownMbps: 2, PerConnMbps: 1, Sigma: 0.0001},
	}
	env := netsim.NewEnv(clk, cfg, profiles)
	host := env.NewHost(netsim.LocationProfile{Name: "here", UplinkMbps: 10000, DownlinkMbps: 10000})
	var clouds []cloud.Interface
	var names []string
	// Wrapped as core wraps them: the prober hears of a block only
	// through Probing.
	prober := sched.NewProber(0)
	for _, p := range profiles {
		clouds = append(clouds, NewProbing(cloudsim.NewClient(cloudsim.NewStore(p.Name, 0), host), prober, clk))
		names = append(names, p.Name)
	}
	engine := New(clouds, prober, Config{Clock: clk, ConnsPerCloud: 2})

	params := sched.Params{N: 4, K: 4, Kr: 2, Ks: 2} // fair 2, maxPC 3, normal 8, max 12
	coder, err := erasure.NewCoder(params.K, params.CodeN())
	if err != nil {
		t.Fatal(err)
	}
	seg := make([]byte, 1<<20)
	rand.New(rand.NewSource(8)).Read(seg)
	plan, err := sched.NewUploadPlan(params, names)
	if err != nil {
		t.Fatal(err)
	}
	// Stop at reliability, as the paper's over-provisioning window
	// does: extras flow only while the slowest cloud is still
	// uploading its fair share.
	if err := engine.UploadSegment(context.Background(), plan, "segOP",
		coderSource(t, coder, seg), func() bool { return reliable(plan, names) }); err != nil {
		t.Fatal(err)
	}
	perCloud, extras := map[string]int{}, 0
	for b, c := range plan.Placement() {
		perCloud[c]++
		if b >= params.NormalBlocks() {
			extras++
		}
	}
	if extras == 0 {
		t.Fatal("no over-provisioned blocks despite 40x speed disparity")
	}
	if perCloud["fast1"]+perCloud["fast2"] <= perCloud["slow1"]+perCloud["slow2"] {
		t.Fatalf("fast clouds did not receive more blocks: %v", perCloud)
	}
	for c, n := range perCloud {
		if n > params.MaxPerCloud() {
			t.Fatalf("%s holds %d blocks, security cap is %d", c, n, params.MaxPerCloud())
		}
	}
}

// blockRefs turns a plan's placement (block ID -> cloud) into the
// batch-delete argument.
func blockRefs(segID string, placement map[int]string) []BlockRef {
	refs := make([]BlockRef, 0, len(placement))
	for blockID, cloudName := range placement {
		refs = append(refs, BlockRef{SegID: segID, BlockID: blockID, Cloud: cloudName})
	}
	return refs
}

func TestDeleteBlocks(t *testing.T) {
	r := newDirectRig(t, 5)
	seg := make([]byte, 500)
	rand.New(rand.NewSource(9)).Read(seg)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "segDel",
		coderSource(t, paperCoder(t), seg), nil); err != nil {
		t.Fatal(err)
	}
	placement := plan.Placement()
	n := r.engine.DeleteBlocks(context.Background(), blockRefs("segDel", placement))
	if n != len(placement) {
		t.Fatalf("deleted %d of %d blocks", n, len(placement))
	}
	for _, st := range r.stores {
		if st.FileCount() != 0 {
			t.Fatalf("%s still has %d files", st.Name(), st.FileCount())
		}
	}
}

// TestProberFedByTransfers: block transfers reach the prober through
// the Probing wrapper and nowhere else — the engine does not observe
// them a second time.
func TestProberFedByTransfers(t *testing.T) {
	upload := func(wrap bool) (*sched.Prober, []string) {
		prober := sched.NewProber(0)
		var clouds []cloud.Interface
		var names []string
		for i := 0; i < 5; i++ {
			var c cloud.Interface = cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0))
			if wrap {
				c = NewProbing(c, prober, vclock.Real{})
			}
			clouds = append(clouds, c)
			names = append(names, c.Name())
		}
		seg := make([]byte, 400)
		rand.New(rand.NewSource(10)).Read(seg)
		plan, err := sched.NewUploadPlan(paperParams, names)
		if err != nil {
			t.Fatal(err)
		}
		engine := New(clouds, prober, Config{})
		if err := engine.UploadSegment(context.Background(), plan, "segP",
			coderSource(t, paperCoder(t), seg), nil); err != nil {
			t.Fatal(err)
		}
		return prober, names
	}
	prober, names := upload(true)
	for _, n := range names {
		if !estimated(prober, n, sched.Up) {
			t.Fatalf("no prober sample for %s despite its fair-share upload", n)
		}
	}
	prober, names = upload(false)
	for _, n := range names {
		if estimated(prober, n, sched.Up) {
			t.Fatalf("%s observed without the Probing wrapper: the engine must not observe transfers itself", n)
		}
	}
}

func TestUploadContextCancelled(t *testing.T) {
	r := newDirectRig(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	err = r.engine.UploadSegment(ctx, plan, "segC",
		func(int) ([]byte, error) { return []byte{1}, nil }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBlockPath(t *testing.T) {
	r := newDirectRig(t, 1)
	if got := r.engine.BlockPath("abc", 4); got != ".unidrive/blocks/abc.4" {
		t.Fatalf("BlockPath = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with no clouds did not panic")
		}
	}()
	New(nil, sched.NewProber(0), Config{})
}

func TestDownloadSpeedFavoursFastClouds(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shaped test is unreliable under the race detector")
	}
	// Blocks replicated on both a fast and a slow cloud: the engine
	// should fetch predominantly from the fast one once probed.
	clk := vclock.NewScaled(300)
	cfg := netsim.DefaultConfig(2)
	cfg.DegradedProb = 0
	profiles := []netsim.CloudProfile{
		{Name: "fast", UpMbps: 100, DownMbps: 100, PerConnMbps: 50, Sigma: 0.0001},
		{Name: "slow", UpMbps: 2, DownMbps: 2, PerConnMbps: 1, Sigma: 0.0001},
	}
	env := netsim.NewEnv(clk, cfg, profiles)
	host := env.NewHost(netsim.LocationProfile{Name: "here", UplinkMbps: 10000, DownlinkMbps: 10000})
	fastStore := cloudsim.NewStore("fast", 0)
	slowStore := cloudsim.NewStore("slow", 0)
	clouds := []cloud.Interface{
		cloudsim.NewClient(fastStore, host),
		cloudsim.NewClient(slowStore, host),
	}
	engine := New(clouds, sched.NewProber(0), Config{Clock: clk, ConnsPerCloud: 2})

	// Place 8 blocks of 256 KB on both clouds.
	coder, err := erasure.NewCoder(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	seg := make([]byte, 1<<20)
	rand.New(rand.NewSource(11)).Read(seg)
	blocks := coder.Encode(seg)
	locations := make(map[int][]string)
	for i, b := range blocks {
		path := engine.BlockPath("segD", i)
		if err := cloudsim.NewDirect(fastStore).Upload(context.Background(), path, b); err != nil {
			t.Fatal(err)
		}
		if err := cloudsim.NewDirect(slowStore).Upload(context.Background(), path, b); err != nil {
			t.Fatal(err)
		}
		locations[i] = []string{"fast", "slow"}
	}
	// Warm the prober so ranking reflects reality.
	engine.Prober().Observe("fast", sched.Down, 1_000_000, 100*time.Millisecond)
	engine.Prober().Observe("slow", sched.Down, 10_000, time.Second)

	start := clk.Now()
	dplan, err := sched.NewDownloadPlan(4, locations)
	if err != nil {
		t.Fatal(err)
	}
	got, err := downloadSegment(context.Background(), engine, dplan, "segD")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now().Sub(start)
	if _, err := coder.Decode(got, len(seg)); err != nil {
		t.Fatal(err)
	}
	// 4 blocks × 256KB = 1MB. From the fast cloud (100 Mbps) this is
	// well under a second; the slow path would need > 4 simulated
	// seconds. Allow margin for one straggler block on the slow
	// cloud.
	if elapsed > 5*time.Second {
		t.Fatalf("download took %v simulated; fastest-cloud scheduling ineffective", elapsed)
	}
}

// downloadSegment runs one download plan to completion and returns the
// fetched blocks (block ID -> content), failing with
// ErrSegmentUnrecoverable when the plan ends short of K blocks.
func downloadSegment(ctx context.Context, e *Engine, plan *sched.DownloadPlan, segID string) (map[int][]byte, error) {
	res, err := e.DownloadBatch(ctx, []DownloadItem{{Plan: plan, SegID: segID}})
	if err != nil {
		return nil, err
	}
	if !plan.Done() {
		return nil, fmt.Errorf("%w: got %d blocks", ErrSegmentUnrecoverable, len(res[0]))
	}
	return res[0], nil
}

// reliable reports whether the plan over names reached the paper's
// reliability goal without the dropped clouds: each other cloud holds
// at least its fair share of the landed blocks, and each dropped one
// holds none and gets no more work from the plan.
func reliable(plan *sched.UploadPlan, names []string, dropped ...string) bool {
	held := map[string]int{}
	for _, c := range plan.Placement() {
		held[c]++
	}
	for _, c := range dropped {
		if _, work := plan.NextBlock(c, true); work || held[c] > 0 {
			return false
		}
	}
	for _, c := range names {
		if !slices.Contains(dropped, c) && held[c] < plan.Params().FairShare() {
			return false
		}
	}
	return true
}
