package transfer

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
)

// A survey distinguishes the three states of a cloud: listed (a
// missing block directory is an empty cloud), unknown (its List
// failed) and not in the engine. Directory entries and names that are
// not block files do not count as blocks.
func TestSurveyUnknownIsNotEmpty(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	var clouds []cloud.Interface
	var flaky []*cloudsim.Flaky
	for i := 0; i < 3; i++ {
		f := cloudsim.NewFlaky(cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)), 0, int64(i))
		flaky, clouds = append(flaky, f), append(clouds, f)
	}
	e := New(clouds, sched.NewProber(0), Config{Obs: reg})
	// c0 holds two blocks, a stray file and a sub-directory; c1 holds a
	// block but will not list; c2 has no block directory at all.
	for _, put := range []struct {
		cloud, segID string
		blockID      int
	}{{"c0", "segA", 0}, {"c0", "segB", 4}, {"c1", "segA", 1}} {
		if err := e.PutBlock(ctx, put.cloud, put.segID, put.blockID, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := clouds[0].Upload(ctx, cloud.JoinPath(DefaultBlockDir, "README"), []byte("not a block")); err != nil {
		t.Fatal(err)
	}
	if err := clouds[0].CreateDir(ctx, cloud.JoinPath(DefaultBlockDir, "segC.7")); err != nil {
		t.Fatal(err)
	}
	flaky[1].SetDown(true)

	sv := e.Survey(ctx)
	unknown := func(c string) bool { return slices.Contains(sv.UnknownClouds(), c) }
	if !sv.Listed("c0") || unknown("c0") || !sv.Has("c0", "segA", 0) || !sv.Has("c0", "segB", 4) {
		t.Errorf("c0: listed=%v unknown=%v, want its two blocks listed", sv.Listed("c0"), unknown("c0"))
	}
	if sv.Has("c0", "segC", 7) {
		t.Error("a directory named like a block counts as a block")
	}
	if sv.Listed("c1") || !unknown("c1") || sv.Has("c1", "segA", 1) {
		t.Errorf("c1: listed=%v unknown=%v, want unknown: its List failed", sv.Listed("c1"), unknown("c1"))
	}
	if !sv.Listed("c2") || unknown("c2") {
		t.Errorf("c2: listed=%v unknown=%v, want listed and empty: a missing directory is an empty cloud", sv.Listed("c2"), unknown("c2"))
	}
	if sv.Listed("c9") || unknown("c9") {
		t.Error("a cloud outside the engine is neither listed nor unknown")
	}
	if got := sv.UnknownClouds(); len(got) != 1 || got[0] != "c1" {
		t.Errorf("UnknownClouds = %v, want [c1]", got)
	}
	if got := reg.Snapshot().Counter("transfer.survey.clouds_failed"); got != 1 {
		t.Errorf("transfer.survey.clouds_failed = %d, want 1", got)
	}
	all := sv.Blocks(func(string) bool { return true })
	if len(all) != 2 {
		t.Errorf("survey holds %v, want exactly c0's two blocks", all)
	}
	if got := sv.Blocks(func(segID string) bool { return segID == "segB" }); len(got) != 1 ||
		got[0] != (BlockRef{SegID: "segB", BlockID: 4, Cloud: "c0"}) {
		t.Errorf("Blocks(segB) = %v", got)
	}
}

// heldLists is a cloud whose List calls stay in flight until released.
type heldLists struct {
	cloud.Interface
	entered chan struct{}
	release chan struct{}
}

func (h *heldLists) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	h.entered <- struct{}{}
	select {
	case <-h.release:
		return h.Interface.List(ctx, path)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// The survey is one round trip, not five: every cloud's List is in
// flight before any has answered.
func TestSurveyListsEveryCloudAtOnce(t *testing.T) {
	release := make(chan struct{})
	held := make([]*heldLists, 5)
	clouds := make([]cloud.Interface, len(held))
	for i := range held {
		held[i] = &heldLists{
			Interface: cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)),
			entered:   make(chan struct{}, 1), release: release,
		}
		clouds[i] = held[i]
	}
	e := New(clouds, sched.NewProber(0), Config{})
	done := make(chan *Survey, 1)
	go func() { done <- e.Survey(context.Background()) }()
	for _, h := range held {
		select {
		case <-h.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s was not listed while the other clouds' listings were still in flight", h.Name())
		}
	}
	close(release)
	select {
	case sv := <-done:
		for _, h := range held {
			if !sv.Listed(h.Name()) {
				t.Errorf("%s not listed", h.Name())
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("survey did not finish")
	}
}
