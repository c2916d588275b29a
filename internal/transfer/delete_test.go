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
)

// heldDeletes is a cloud whose Delete calls stay in flight until the
// test lets them go, so the number in flight at once can be read off.
type heldDeletes struct {
	cloud.Interface
	entered chan string   // one path per Delete that arrived
	release chan struct{} // closed: every Delete proceeds

	mu       sync.Mutex
	inFlight int
	peak     int
}

func newHeldDeletes(name string) *heldDeletes {
	return &heldDeletes{
		Interface: cloudsim.NewDirect(cloudsim.NewStore(name, 0)),
		entered:   make(chan string, 1024), // never blocks a Delete: above any test's block count
		release:   make(chan struct{}),
	}
}

func (h *heldDeletes) Delete(ctx context.Context, path string) error {
	h.mu.Lock()
	h.inFlight++
	if h.inFlight > h.peak {
		h.peak = h.inFlight
	}
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.inFlight--
		h.mu.Unlock()
	}()
	h.entered <- path
	select {
	case <-h.release:
		return h.Interface.Delete(ctx, path)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// heldRig builds n held clouds, an engine over them and perCloud doomed
// blocks on each.
func heldRig(n, perCloud int, cfg Config) ([]*heldDeletes, *Engine, []BlockRef) {
	held := make([]*heldDeletes, n)
	clouds := make([]cloud.Interface, n)
	var blocks []BlockRef
	for i := range held {
		held[i] = newHeldDeletes(fmt.Sprintf("c%d", i))
		clouds[i] = held[i]
		for b := 0; b < perCloud; b++ {
			blocks = append(blocks, BlockRef{SegID: fmt.Sprintf("seg%d", b/3), BlockID: b, Cloud: held[i].Name()})
		}
	}
	return held, New(clouds, sched.NewProber(0), cfg), blocks
}

// awaitEntered waits for n Delete calls to arrive at the cloud.
func awaitEntered(t *testing.T, h *heldDeletes, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-h.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: only %d of %d deletes arrived", h.Name(), i, n)
		}
	}
}

// Every cloud's deletes overlap, ConnsPerCloud at a time — no more,
// and no fewer while work is queued.
func TestDeleteBlocksOverlapsWithinConnsPerCloud(t *testing.T) {
	const conns, perCloud = 3, 8
	reg := obs.NewRegistry()
	held, engine, blocks := heldRig(4, perCloud, Config{ConnsPerCloud: conns, Obs: reg})
	done := make(chan int, 1)
	go func() { done <- engine.DeleteBlocks(context.Background(), blocks) }()

	// With nothing released, exactly conns deletes sit in flight on
	// every cloud at once: the batch did not wait for one before issuing
	// the next, and it did not exceed the budget.
	for _, h := range held {
		awaitEntered(t, h, conns)
	}
	for _, h := range held {
		close(h.release)
	}
	select {
	case n := <-done:
		if n != len(blocks) {
			t.Fatalf("deleted %d of %d", n, len(blocks))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch delete did not finish")
	}
	for _, h := range held {
		if h.peak != conns {
			t.Errorf("%s: peak %d deletes in flight, want %d", h.Name(), h.peak, conns)
		}
	}
	s := reg.Snapshot()
	if got := s.Counter("transfer.delete.blocks"); got != int64(len(blocks)) {
		t.Errorf("delete.blocks = %d, want %d", got, len(blocks))
	}
	if got := s.Counter("transfer.delete.skipped") + s.Counter("transfer.delete.blocks_failed"); got != 0 {
		t.Errorf("skipped + failed = %d, want 0", got)
	}
	if got := s.Gauge("transfer.active"); got != 0 {
		t.Errorf("active gauge = %v after the batch", got)
	}
}

// Once the context is done the batch launches nothing more: what was in
// flight fails, the rest is counted as skipped, and the counters add up
// to the request.
func TestDeleteBlocksStopsLaunchingOnCancel(t *testing.T) {
	const conns, perCloud = 2, 10
	reg := obs.NewRegistry()
	held, engine, blocks := heldRig(3, perCloud, Config{ConnsPerCloud: conns, Obs: reg})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() { done <- engine.DeleteBlocks(ctx, blocks) }()
	for _, h := range held {
		awaitEntered(t, h, conns)
	}
	cancel()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("deleted %d blocks, want 0", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch delete did not return")
	}
	launched := len(held) * conns
	for _, h := range held {
		if extra := len(h.entered); extra != 0 {
			t.Errorf("%s: %d deletes launched after cancellation", h.Name(), extra)
		}
	}
	s := reg.Snapshot()
	if got := s.Counter("transfer.delete.blocks_failed"); got != int64(launched) {
		t.Errorf("delete.blocks_failed = %d, want %d (the ones in flight)", got, launched)
	}
	if got := s.Counter("transfer.delete.skipped"); got != int64(len(blocks)-launched) {
		t.Errorf("delete.skipped = %d, want %d", got, len(blocks)-launched)
	}

	// A context that is already done launches nothing at all.
	if n := engine.DeleteBlocks(ctx, blocks); n != 0 {
		t.Fatalf("deleted %d blocks under a done context", n)
	}
	for _, h := range held {
		if extra := len(h.entered); extra != 0 {
			t.Errorf("%s: %d deletes launched under a done context", h.Name(), extra)
		}
	}
	if got := reg.Snapshot().Counter("transfer.delete.skipped"); got != int64(2*len(blocks)-launched) {
		t.Errorf("delete.skipped = %d, want %d", got, 2*len(blocks)-launched)
	}
}

// With a shared scheduler the process-wide budget binds, not the
// engine's own: the batch waits for slots other tenants hold and hands
// every slot back.
func TestDeleteBlocksHonoursFairScheduler(t *testing.T) {
	const perCloud = 6
	reg := obs.NewRegistry()
	fair := NewFairScheduler(2, nil)
	held, engine, blocks := heldRig(2, perCloud, Config{ConnsPerCloud: 5, Obs: reg, Fair: fair, Tenant: "me"})
	// Another tenant holds c0's whole budget.
	for i := 0; i < 2; i++ {
		if !fair.Acquire("c0", "other") {
			t.Fatal("setup: could not take c0's slots")
		}
	}
	done := make(chan int, 1)
	go func() { done <- engine.DeleteBlocks(context.Background(), blocks) }()

	// c1 proceeds, two at a time; c0 gets nothing while "other" holds it.
	awaitEntered(t, held[1], 2)
	close(held[1].release)
	awaitEntered(t, held[1], perCloud-2)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("transfer.fair.waits").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never waited on the shared scheduler")
		}
		time.Sleep(time.Millisecond)
	}
	if n := len(held[0].entered); n != 0 {
		t.Fatalf("%d deletes reached c0 while another tenant held its budget", n)
	}
	fair.Release("c0", "other")
	fair.Release("c0", "other")
	close(held[0].release)
	select {
	case n := <-done:
		if n != len(blocks) {
			t.Fatalf("deleted %d of %d", n, len(blocks))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch delete did not resume after the slots were freed")
	}
	for _, h := range held {
		if h.peak > 2 {
			t.Errorf("%s: peak %d deletes in flight, above the shared budget of 2", h.Name(), h.peak)
		}
		if n := fair.Held(h.Name(), "me"); n != 0 {
			t.Errorf("%s: %d shared slots still held after the batch", h.Name(), n)
		}
	}
}
