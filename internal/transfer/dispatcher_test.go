package transfer

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/health"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

// An upload batch writes c1 off as Full and c2 as Dead. While it is
// still running, a download batch on the same engine reads from c1 —
// a full cloud serves every read — and never asks c2.
func TestExclusionReasonDecidesWhoStillServesReads(t *testing.T) {
	r := newDirectRig(t, 5)
	reg := obs.NewRegistry()
	clk := vclock.NewManual(time.Unix(0, 0)) // breakers stay open, quota stays full
	breakers := health.NewDefaultTracker(clk, 1, reg)
	quota := capacity.NewDefaultTracker(clk, reg)
	var clouds []cloud.Interface
	for _, f := range r.flaky {
		b := breakers.Breaker(f.Name())
		clouds = append(clouds, cloud.NewChain(f, clk, b, reg.ObserveCall, quota.ObserveCall, b.ObserveCall))
	}
	engine := New(clouds, sched.NewProber(0), Config{Obs: reg, Health: breakers, Capacity: quota})
	ctx := context.Background()
	coder := paperCoder(t)

	old := make([]byte, 3000)
	rand.New(rand.NewSource(31)).Read(old)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.UploadSegment(ctx, plan, "old", coderSource(t, coder, old), nil); err != nil {
		t.Fatal(err)
	}
	holder := make(map[string]int) // cloud -> the block of "old" it holds
	for b, c := range plan.Placement() {
		holder[c] = b
	}

	r.flaky[1].SetQuotaFull(true)
	r.flaky[2].SetDown(true)
	// "old" as held by c0, the full cloud and the dead cloud, any two
	// of the three blocks wanted.
	readOld := func() map[int][]byte {
		dplan, err := sched.NewDownloadPlan(2, map[int][]string{
			holder["c0"]: {"c0"}, holder["c1"]: {"c1"}, holder["c2"]: {"c2"},
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := downloadSegment(ctx, engine, dplan, "old")
		if err != nil {
			t.Fatalf("download while the upload batch runs: %v", err)
		}
		return blocks
	}
	var got map[int][]byte
	excludedBoth := func() bool {
		return reg.Counter("transfer.clouds_marked_full").Value() > 0 &&
			reg.Counter("transfer.clouds_marked_dead").Value() > 0
	}
	fresh := make([]byte, 3000)
	rand.New(rand.NewSource(32)).Read(fresh)
	plan2, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	// stop runs on the upload batch's dispatcher, mid-batch: once the
	// batch has excluded both clouds, read "old" from inside it.
	err = engine.UploadSegment(ctx, plan2, "new", coderSource(t, coder, fresh), func() bool {
		if got == nil && excludedBoth() {
			got = readOld()
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan2.IsFull("c1") || plan2.IsFull("c2") {
		t.Fatalf("plan: IsFull(c1)=%v IsFull(c2)=%v, want c1 excluded for quota and c2 not", plan2.IsFull("c1"), plan2.IsFull("c2"))
	}
	if got == nil {
		t.Fatal("the upload batch never excluded both clouds")
	}
	if _, ok := got[holder["c1"]]; !ok {
		t.Fatalf("the full cloud's block was not read (got blocks %v)", keys(got))
	}
	if _, ok := got[holder["c2"]]; ok {
		t.Fatal("a block was read from the dead cloud")
	}
	for _, row := range reg.Snapshot().Ops {
		if row.Cloud == "c2" && row.Op == obs.OpDownload && row.Calls() != 0 {
			t.Fatalf("%d download requests reached the dead cloud", row.Calls())
		}
	}
	if n := reg.Counter("transfer.down.breaker_routed").Value(); n == 0 {
		t.Fatal("the download batch did not route around the open breaker")
	}
}

func keys(m map[int][]byte) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

// The shared loop, with every shared slot held by another tenant: run
// must neither return with work left nor spin — it sleeps on the
// scheduler's change channel — and finishes the work once a slot
// frees.
func TestDispatcherRunWaitsForSharedSlots(t *testing.T) {
	r := newDirectRig(t, 1)
	reg := obs.NewRegistry()
	fair := NewFairScheduler(1, nil)
	engine := New(enginesClouds(r), sched.NewProber(0), Config{Obs: reg, Fair: fair, Tenant: "me"})
	if !fair.Acquire("c0", "other") {
		t.Fatal("setup: the other tenant could not take the only slot")
	}

	d := engine.newDispatcher(3)
	d.requeueAll()
	var dispatches atomic.Int32
	dispatch := func() {
		dispatches.Add(1)
		for len(d.pending["c0"]) > 0 && d.idle["c0"] > 0 && d.acquireFair("c0") {
			item := d.pending["c0"][0]
			d.pending["c0"] = d.pending["c0"][1:]
			d.take("c0")
			go func() { d.results <- result{item: item, cloudName: "c0"} }()
		}
	}
	var handled []int
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		d.run(context.Background(), dispatch, func(r result) { handled = append(handled, r.item) })
	}()

	waits := reg.Counter("transfer.fair.waits")
	for deadline := time.Now().Add(5 * time.Second); waits.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("run never went to sleep on the shared scheduler")
		}
		time.Sleep(time.Millisecond)
	}
	asleep := dispatches.Load()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-finished:
		t.Fatal("run returned with every item still queued")
	default:
	}
	if now := dispatches.Load(); now != asleep {
		t.Fatalf("run spun: %d dispatch passes while no slot could free", now-asleep)
	}

	fair.Release("c0", "other")
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not resume after a shared slot freed")
	}
	if len(handled) != 3 {
		t.Fatalf("run handled items %v, want all three", handled)
	}
	if held := fair.Held("c0", "me"); held != 0 {
		t.Fatalf("%d shared slots still held after the batch", held)
	}
}
