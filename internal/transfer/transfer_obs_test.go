package transfer

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/erasure"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

// TestDownloadRetryExhaustion drives every download against clouds
// that fail 100% of calls: each block must burn exactly RetryAttempts
// attempts, the segment must come back unrecoverable, and the obs
// counters must reconcile with the retry arithmetic.
func TestDownloadRetryExhaustion(t *testing.T) {
	retryAttempts := int64(cloud.DefaultRetryPolicy(nil).MaxAttempts)
	r := newDirectRig(t, 5)
	seg := make([]byte, 900)
	rand.New(rand.NewSource(20)).Read(seg)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "segR",
		coderSource(t, paperCoder(t), seg), nil); err != nil {
		t.Fatal(err)
	}

	// Same stores, but every call now fails transiently; the scaled
	// clock compresses the retry backoff sleeps.
	reg := obs.NewRegistry()
	var broken []cloud.Interface
	for _, st := range r.stores {
		broken = append(broken, cloudsim.NewFlaky(cloudsim.NewDirect(st), 1.0, 99))
	}
	engine := New(broken, sched.NewProber(0), Config{
		Clock: vclock.NewScaled(1000),
		Obs:   reg,
	})

	locations := make(map[int][]string)
	for b, c := range plan.Placement() {
		locations[b] = []string{c}
	}
	dplan, err := sched.NewDownloadPlan(paperParams.K, locations)
	if err != nil {
		t.Fatal(err)
	}
	_, err = downloadSegment(context.Background(), engine, dplan, "segR")
	if !errors.Is(err, ErrSegmentUnrecoverable) {
		t.Fatalf("err = %v, want ErrSegmentUnrecoverable", err)
	}

	s := reg.Snapshot()
	failed := s.Counter("transfer.down.blocks_failed")
	if failed < int64(paperParams.K) {
		t.Fatalf("blocks_failed = %d, want >= K=%d", failed, paperParams.K)
	}
	if got := s.Counter("transfer.down.blocks"); got != 0 {
		t.Fatalf("blocks succeeded against always-failing clouds: %d", got)
	}
	// Every failed block ran the retry loop to exhaustion, so the
	// retry counter is exactly (attempts-1) per failure.
	if got, want := s.Counter("transfer.down.retries"), failed*(retryAttempts-1); got != want {
		t.Fatalf("retries = %d, want %d (= %d failures x %d extra attempts)",
			got, want, failed, retryAttempts-1)
	}
	// All slots were drained before returning.
	if got := s.Gauges["transfer.active"]; got != 0 {
		t.Fatalf("active gauge = %v after batch", got)
	}
}

// TestDeleteBlocksEdges covers placements naming unknown clouds and
// clouds that refuse the delete, and checks the obs accounting.
func TestDeleteBlocksEdges(t *testing.T) {
	r := newDirectRig(t, 3)
	seg := make([]byte, 400)
	rand.New(rand.NewSource(21)).Read(seg)
	params := sched.Params{N: 3, K: 2, Kr: 2, Ks: 2}
	coder, err := erasure.NewCoder(params.K, params.CodeN())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.NewUploadPlan(params, r.names)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var clouds []cloud.Interface
	for _, fl := range r.flaky {
		clouds = append(clouds, fl)
	}
	engine := New(clouds, sched.NewProber(0), Config{Obs: reg})
	if err := engine.UploadSegment(context.Background(), plan, "segE",
		coderSource(t, coder, seg), nil); err != nil {
		t.Fatal(err)
	}
	placement := plan.Placement()

	// One cloud goes down (its deletes fail), and the placement gains
	// a phantom entry for a cloud this engine has never heard of.
	r.flaky[1].SetDown(true)
	downName := r.names[1]
	downBlocks := 0
	for _, c := range placement {
		if c == downName {
			downBlocks++
		}
	}
	placement[1000] = "no-such-cloud"

	n := engine.DeleteBlocks(context.Background(), blockRefs("segE", placement))
	want := len(placement) - 1 - downBlocks // minus phantom, minus down cloud's blocks
	if n != want {
		t.Fatalf("DeleteBlocks = %d, want %d", n, want)
	}

	s := reg.Snapshot()
	if got := s.Counter("transfer.delete.unknown_cloud"); got != 1 {
		t.Fatalf("unknown_cloud = %d", got)
	}
	if got := s.Counter("transfer.delete.blocks"); got != int64(want) {
		t.Fatalf("delete.blocks = %d, want %d", got, want)
	}
	if got := s.Counter("transfer.delete.blocks_failed"); got != int64(downBlocks) {
		t.Fatalf("delete.blocks_failed = %d, want %d", got, downBlocks)
	}

	// Deleting again: the simulated store's Delete is idempotent, so
	// with the cloud back up every entry succeeds, including the ones
	// whose files are already gone.
	r.flaky[1].SetDown(false)
	delete(placement, 1000)
	if n := engine.DeleteBlocks(context.Background(), blockRefs("segE", placement)); n != len(placement) {
		t.Fatalf("second DeleteBlocks = %d, want %d (idempotent deletes)", n, len(placement))
	}
	for _, st := range r.stores {
		if st.FileCount() != 0 {
			t.Fatalf("%s still holds %d files", st.Name(), st.FileCount())
		}
	}
}

// TestUploadBatchObsCounters checks the engine's success-path metrics
// reconcile with the plan outcome.
func TestUploadBatchObsCounters(t *testing.T) {
	r := newDirectRig(t, 5)
	reg := obs.NewRegistry()
	var clouds []cloud.Interface
	for _, fl := range r.flaky {
		clouds = append(clouds, fl)
	}
	engine := New(clouds, sched.NewProber(0), Config{Obs: reg})
	seg := make([]byte, 1200)
	rand.New(rand.NewSource(22)).Read(seg)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.UploadSegment(context.Background(), plan, "segO",
		coderSource(t, paperCoder(t), seg), nil); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	uploaded := int64(len(plan.UploadedBlocks()))
	if got := s.Counter("transfer.up.blocks"); got != uploaded {
		t.Fatalf("up.blocks = %d, plan uploaded %d", got, uploaded)
	}
	if got := s.Counter("transfer.up.blocks_failed"); got != 0 {
		t.Fatalf("up.blocks_failed = %d on healthy clouds", got)
	}
	if got := s.Histograms["transfer.up.block_seconds"].Count; got != uploaded {
		t.Fatalf("block_seconds count = %d, want %d", got, uploaded)
	}
	// No failures means every assignment completed: handouts reconcile
	// exactly with the plan's final block set.
	normal := s.Counter("sched.plan.normal_assigned")
	extra := s.Counter("sched.plan.overprov_assigned")
	if normal != int64(paperParams.NormalBlocks()) {
		t.Fatalf("plan.normal_assigned = %d, want %d", normal, paperParams.NormalBlocks())
	}
	if normal+extra != uploaded {
		t.Fatalf("assigned %d+%d blocks but plan uploaded %d", normal, extra, uploaded)
	}
	if got := s.Counter("transfer.up.overprovisioned"); got != extra {
		t.Fatalf("up.overprovisioned = %d, want %d", got, extra)
	}
	bytes := s.Counter("transfer.up.bytes")
	if bytes <= 0 || bytes%uploaded != 0 {
		t.Fatalf("up.bytes = %d not a multiple of %d equal-sized blocks", bytes, uploaded)
	}
}
