package transfer

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
)

// heldUploads is a cloud whose block uploads stay in flight until the
// test lets them go, one token on release per upload (closing release
// lets all go) — heldDeletes for the upload path.
type heldUploads struct {
	cloud.Interface
	entered chan string   // one path per Upload that arrived
	release chan struct{} // one receive per Upload that may proceed
}

func (h *heldUploads) Upload(ctx context.Context, path string, data []byte) error {
	if !strings.HasPrefix(path, DefaultBlockDir+"/") {
		return h.Interface.Upload(ctx, path, data)
	}
	h.entered <- path
	select {
	case <-h.release:
		return h.Interface.Upload(ctx, path, data)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// After the availability instant the batch keeps the slow cloud's
// connection fed from its queue — the connection a landed block frees
// is refilled at once, not left empty until a second batch — and buys
// no more over-provisioned blocks.
func TestUploadTailRefillsSlowCloudAfterAvailability(t *testing.T) {
	const segments = 3
	r := newDirectRig(t, 5)
	slow := &heldUploads{
		Interface: cloudsim.NewDirect(r.stores[4]),
		entered:   make(chan string, 64), // never blocks an Upload: above the test's block count
		release:   make(chan struct{}),
	}
	clouds := enginesClouds(r)
	clouds[4] = slow
	reg := obs.NewRegistry()
	engine := New(clouds, sched.NewProber(0), Config{ConnsPerCloud: 1, Obs: reg})
	coder := paperCoder(t)
	items := make([]UploadItem, segments)
	for i := range items {
		seg := make([]byte, 1200)
		rand.New(rand.NewSource(int64(40 + i))).Read(seg)
		plan, err := sched.NewUploadPlan(paperParams, r.names)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = UploadItem{Plan: plan, SegID: "seg" + string(rune('A'+i)), Src: coderSource(t, coder, seg)}
	}
	extras := reg.Counter("sched.plan.overprov_assigned")
	instant := make(chan int64, 1)
	done := make(chan error, 1)
	go func() {
		_, err := engine.UploadBatch(context.Background(), items, func() bool {
			for _, it := range items {
				if !it.Plan.Available() {
					return false
				}
			}
			instant <- extras.Value()
			return true
		})
		done <- err
	}()
	awaitUpload := func(what string) {
		t.Helper()
		select {
		case <-slow.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never reached the slow cloud", what)
		}
	}

	// The four fast clouds make every segment available while the slow
	// cloud's one connection holds its first block and queues the rest.
	awaitUpload("the first block")
	var extrasAtInstant int64
	select {
	case extrasAtInstant = <-instant:
	case <-time.After(10 * time.Second):
		t.Fatal("the batch never became available")
	}
	for i := 1; i < segments; i++ {
		slow.release <- struct{}{}
		awaitUpload("a queued block, after the availability instant,")
	}
	close(slow.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the batch did not finish")
	}
	for _, it := range items {
		if !reliable(it.Plan, r.names) {
			t.Errorf("%s ended short of reliability: %v", it.SegID, it.Plan.Placement())
		}
	}
	if got := extras.Value(); got != extrasAtInstant {
		t.Errorf("%d over-provisioned blocks handed out after the availability instant", got-extrasAtInstant)
	}
}
