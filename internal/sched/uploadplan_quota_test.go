package sched

import (
	"sort"
	"testing"

	"unidrive/internal/obs"
)

// drainPlan drives every cloud to completion (every NextBlock
// succeeds) and returns the final placement.
func drainPlan(t *testing.T, plan *UploadPlan, clouds []string) map[int]string {
	t.Helper()
	for progressed := true; progressed; {
		progressed = false
		for _, c := range clouds {
			if b, ok := plan.NextBlock(c, true); ok {
				plan.Complete(c, b)
				progressed = true
			}
		}
	}
	return plan.Placement()
}

func placementByCloud(p map[int]string) map[string][]int {
	out := make(map[string][]int)
	for b, c := range p {
		out[c] = append(out[c], b)
	}
	for c := range out {
		sort.Ints(out[c])
	}
	return out
}

// Decision table, shape 1: ONE cloud full before any upload. Its fair
// block moves to the first ranked cloud with space; the plan finishes
// Available and Reliable with exactly NormalBlocks placements — no
// thinning needed with four live clouds.
func TestQuotaShapeOneCloudFull(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	reg := obs.NewRegistry()
	plan.SetObs(reg)

	moved := plan.Exclude("c0", Full, []string{"c1", "c2", "c3", "c4"})
	if moved != 1 {
		t.Fatalf("moved = %d, want 1 (c0's single fair block)", moved)
	}
	if b, ok := plan.NextBlock("c0", true); ok {
		t.Fatalf("full cloud handed block %d", b)
	}
	got := placementByCloud(drainPlan(t, plan, fiveClouds))
	// Block 0 (c0's fair block) lands on c1, after c1's own block 1.
	want := map[string][]int{
		"c1": {0, 1}, "c2": {2}, "c3": {3}, "c4": {4},
	}
	for c, blocks := range want {
		g := got[c]
		if len(g) != len(blocks) {
			t.Fatalf("cloud %s holds %v, want %v (full placement %v)", c, g, blocks, got)
		}
		for i := range blocks {
			if g[i] != blocks[i] {
				t.Fatalf("cloud %s holds %v, want %v", c, g, blocks)
			}
		}
	}
	if len(got["c0"]) != 0 {
		t.Fatalf("full cloud c0 received blocks %v", got["c0"])
	}
	if !plan.Available() || !plan.Reliable() {
		t.Fatalf("one-full plan: Available=%v Reliable=%v, want both true",
			plan.Available(), plan.Reliable())
	}
	if n := reg.Counter("sched.plan.quota_moved").Value(); n != 1 {
		t.Fatalf("quota_moved = %d, want 1", n)
	}
	if n := reg.Counter("sched.plan.quota_dropped").Value(); n != 0 {
		t.Fatalf("quota_dropped = %d, want 0", n)
	}
}

// Decision table, shape 2: MAJORITY full (3 of 5). The two live
// clouds absorb orphans up to the security cap (MaxPerCloud = 2), one
// orphan fits nowhere and is dropped — the plan completes THIN:
// Available (4 ≥ K=3) with fewer than NormalBlocks placements, and
// Reliable because full clouds' fair shares are waived.
func TestQuotaShapeMajorityFull(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	reg := obs.NewRegistry()
	plan.SetObs(reg)

	ranked := []string{"c3", "c4"}
	moved := 0
	for _, c := range []string{"c0", "c1", "c2"} {
		moved += plan.Exclude(c, Full, ranked)
	}
	if moved != 2 {
		t.Fatalf("moved = %d, want 2 (third orphan exceeds security caps)", moved)
	}
	got := placementByCloud(drainPlan(t, plan, fiveClouds))
	// c3 keeps its own block 3 plus orphan 0; c4 keeps 4 plus orphan 1;
	// orphan 2 is dropped. Exactly MaxPerCloud on each live cloud.
	want := map[string][]int{"c3": {0, 3}, "c4": {1, 4}}
	for c, blocks := range want {
		g := got[c]
		if len(g) != len(blocks) || g[0] != blocks[0] || g[1] != blocks[1] {
			t.Fatalf("cloud %s holds %v, want %v (placement %v)", c, g, blocks, got)
		}
	}
	total := 0
	for _, blocks := range got {
		total += len(blocks)
	}
	if total != 4 {
		t.Fatalf("placed %d blocks, want 4 (thin: one dropped)", total)
	}
	if total >= paperParams.NormalBlocks() {
		t.Fatal("plan should be thin: fewer than NormalBlocks placements")
	}
	if !plan.Available() {
		t.Fatal("thin plan with 4 >= K=3 blocks must be Available")
	}
	if !plan.Reliable() {
		t.Fatal("full clouds' fair shares are waived; live clouds done ⇒ Reliable")
	}
	if n := reg.Counter("sched.plan.quota_dropped").Value(); n != 1 {
		t.Fatalf("quota_dropped = %d, want 1", n)
	}
	if n := reg.Counter("sched.plan.full_marks").Value(); n != 3 {
		t.Fatalf("full_marks = %d, want 3", n)
	}
}

// Decision table, shape 3: ALL clouds full. Every block is dropped,
// nothing uploads, and the plan is NOT Available — the caller must
// fail loudly (< K blocks can never reconstruct).
func TestQuotaShapeAllFull(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	for _, c := range fiveClouds {
		plan.Exclude(c, Full, nil)
	}
	for _, c := range fiveClouds {
		if b, ok := plan.NextBlock(c, true); ok {
			t.Fatalf("all-full plan handed block %d to %s", b, c)
		}
	}
	if plan.Available() {
		t.Fatal("all-full plan reports Available with zero uploads")
	}
	if got := len(plan.Placement()); got != 0 {
		t.Fatalf("all-full placement has %d blocks, want 0", got)
	}
}

// Decision table, shape 4 (scheduler half): Full is not Dead.
// The full cloud's existing uploads remain in the placement (they are
// real copies that still serve downloads) and only NEW upload work is
// blocked; in-flight work that fails after the mark is re-homed, not
// requeued to the full cloud.
func TestQuotaFullKeepsExistingPlacements(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	b0, ok := plan.NextBlock("c0", true)
	if !ok {
		t.Fatal("no block for c0")
	}
	plan.Complete("c0", b0)

	// A second in-flight block on c1 fails AFTER c1 goes full: it must
	// re-home to another cloud, not sit on c1's queue forever.
	b1, ok := plan.NextBlock("c1", true)
	if !ok {
		t.Fatal("no block for c1")
	}
	plan.Exclude("c1", Full, nil)
	plan.Fail("c1", b1)
	found := false
	for _, c := range []string{"c0", "c2", "c3", "c4"} {
		for {
			b, ok := plan.NextBlock(c, true)
			if !ok {
				break
			}
			if b == b1 {
				found = true
			}
			plan.Complete(c, b)
		}
	}
	if !found {
		t.Fatalf("block %d failed on full c1 was not re-homed to a live cloud", b1)
	}

	placement := plan.Placement()
	if placement[b0] != "c0" {
		t.Fatalf("completed block %d lost its placement on c0: %v", b0, placement)
	}
	if got := placement[b1]; got == "c1" || got == "" {
		t.Fatalf("failed block %d placed on %q, want a live cloud", b1, got)
	}
}
