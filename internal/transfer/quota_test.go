package transfer

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

// TestUploadQuotaReplansNotRetries is the engine half of the quota
// decision table: a cloud answering ErrQuotaExceeded is a PLACEMENT
// failure — its blocks re-plan onto clouds with space, the cloud is
// never marked dead, and no retry is burned on it.
func TestUploadQuotaReplansNotRetries(t *testing.T) {
	r := newDirectRig(t, 5)
	reg := obs.NewRegistry()
	r.engine = New(enginesClouds(r), sched.NewProber(0), Config{Obs: reg})
	r.flaky[1].SetQuotaFull(true)

	seg := make([]byte, 3000)
	rand.New(rand.NewSource(21)).Read(seg)
	coder := paperCoder(t)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "segQ",
		coderSource(t, coder, seg), nil); err != nil {
		t.Fatal(err)
	}
	if ok := reliable(plan, r.names, "c1"); !plan.Available() || !ok {
		t.Fatalf("plan state: available=%v reliable=%v", plan.Available(), ok)
	}
	for b, c := range plan.Placement() {
		if c == "c1" {
			t.Fatalf("block %d placed on quota-full c1", b)
		}
	}
	if got := reg.Counter("transfer.clouds_marked_full").Value(); got != 1 {
		t.Fatalf("clouds_marked_full = %d, want 1", got)
	}
	// Quota is not a health verdict: the cloud is full, not dead.
	if got := reg.Counter("transfer.clouds_marked_dead").Value(); got != 0 {
		t.Fatalf("clouds_marked_dead = %d, want 0", got)
	}
	if got := reg.Counter("transfer.up.quota_rejected_blocks").Value(); got < 1 {
		t.Fatalf("quota_rejected_blocks = %d, want >= 1", got)
	}
	// cloud.Retry bails on ErrQuotaExceeded after one attempt: no
	// retries are ever burned against a full cloud.
	if got := reg.Counter("transfer.up.retries").Value(); got != 0 {
		t.Fatalf("up.retries = %d, want 0 (quota must not be retried)", got)
	}
}

// TestUploadCapacityGateRoutesAroundFullCloud checks dispatch-time
// gating: when the shared capacity tracker already knows a cloud is
// Full, the engine never even attempts an upload to it.
func TestUploadCapacityGateRoutesAroundFullCloud(t *testing.T) {
	r := newDirectRig(t, 5)
	reg := obs.NewRegistry()
	tr := capacity.NewDefaultTracker(vclock.NewManual(time.Unix(0, 0)), nil)
	tr.ObserveQuotaExceeded("c1")
	r.engine = New(enginesClouds(r), sched.NewProber(0), Config{Obs: reg, Capacity: tr})

	seg := make([]byte, 3000)
	rand.New(rand.NewSource(22)).Read(seg)
	coder := paperCoder(t)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "segQ",
		coderSource(t, coder, seg), nil); err != nil {
		t.Fatal(err)
	}
	if ok := reliable(plan, r.names, "c1"); !plan.Available() || !ok {
		t.Fatalf("plan state: available=%v reliable=%v", plan.Available(), ok)
	}
	// Not one byte reached c1: the gate fires before dispatch, so the
	// full cloud sees zero upload attempts (and zero rejections).
	entries, err := r.flaky[1].List(context.Background(), DefaultBlockDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("c1 holds %d blocks; the capacity gate let uploads through", len(entries))
	}
	if got := reg.Counter("transfer.up.quota_routed").Value(); got < 1 {
		t.Fatalf("quota_routed = %d, want >= 1", got)
	}
	if got := reg.Counter("transfer.clouds_marked_full").Value(); got != 1 {
		t.Fatalf("clouds_marked_full = %d, want 1", got)
	}
}

// TestUploadAllCloudsQuotaFull: with every cloud full the batch must
// terminate promptly with the plan short of availability — the loud
// < K failure is the caller's (core's) to raise.
func TestUploadAllCloudsQuotaFull(t *testing.T) {
	r := newDirectRig(t, 5)
	reg := obs.NewRegistry()
	r.engine = New(enginesClouds(r), sched.NewProber(0), Config{Obs: reg})
	for _, f := range r.flaky {
		f.SetQuotaFull(true)
	}
	seg := make([]byte, 1500)
	rand.New(rand.NewSource(23)).Read(seg)
	coder := paperCoder(t)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "segQ",
		coderSource(t, coder, seg), nil); err != nil {
		t.Fatal(err)
	}
	if plan.Available() {
		t.Fatal("plan available with every cloud quota-full")
	}
	if got := len(plan.Placement()); got != 0 {
		t.Fatalf("placed %d blocks with every cloud full", got)
	}
	if got := reg.Counter("transfer.clouds_marked_full").Value(); got != 5 {
		t.Fatalf("clouds_marked_full = %d, want 5", got)
	}
}

// TestDownloadServedByCapacityFullClouds: a quota-full cloud is not a
// dead cloud — downloads never consult the capacity tracker, so a
// segment whose every holder is Full still reads back byte-identical.
func TestDownloadServedByCapacityFullClouds(t *testing.T) {
	r := newDirectRig(t, 5)
	seg := make([]byte, 5000)
	rand.New(rand.NewSource(24)).Read(seg)
	coder := paperCoder(t)
	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.UploadSegment(context.Background(), plan, "segQ",
		coderSource(t, coder, seg), nil); err != nil {
		t.Fatal(err)
	}

	// Every cloud is now Full in the tracker AND rejects new uploads.
	tr := capacity.NewDefaultTracker(vclock.NewManual(time.Unix(0, 0)), nil)
	for _, n := range r.names {
		tr.ObserveQuotaExceeded(n)
	}
	for _, f := range r.flaky {
		f.SetQuotaFull(true)
	}
	engine := New(enginesClouds(r), sched.NewProber(0), Config{Capacity: tr})

	locations := make(map[int][]string)
	for b, c := range plan.Placement() {
		locations[b] = []string{c}
	}
	dplan, err := sched.NewDownloadPlan(paperParams.K, locations)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := downloadSegment(context.Background(), engine, dplan, "segQ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := coder.Decode(blocks, len(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatal("decoded segment differs from original")
	}
}

// enginesClouds rebuilds the rig's cloud.Interface slice so tests can
// construct engines with non-default configs over the same stores.
func enginesClouds(r *directRig) []cloud.Interface {
	clouds := make([]cloud.Interface, len(r.flaky))
	for i, f := range r.flaky {
		clouds[i] = f
	}
	return clouds
}
