package sched

import "testing"

// threeOfSix is a typical post-upload layout: 6 blocks spread over 3
// clouds, k=3 needed.
func threeOfSix(t *testing.T) *DownloadPlan {
	t.Helper()
	plan, err := NewDownloadPlan(3, map[int][]string{
		0: {"a"}, 1: {"b"}, 2: {"c"},
		3: {"a"}, 4: {"b"}, 5: {"a", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestDownloadPlanValidation(t *testing.T) {
	if _, err := NewDownloadPlan(0, map[int][]string{0: {"a"}}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewDownloadPlan(3, map[int][]string{0: {"a"}}); err == nil {
		t.Fatal("too few locations accepted")
	}
}

func TestDownloadCompletesAfterK(t *testing.T) {
	plan := threeOfSix(t)
	fetched := 0
	for _, c := range []string{"a", "b", "c"} {
		b, ok := plan.NextBlock(c)
		if !ok {
			t.Fatalf("no block for %s", c)
		}
		plan.Complete(c, b)
		fetched++
	}
	if fetched != 3 || !plan.Done() {
		t.Fatalf("fetched %d, Done=%v", fetched, plan.Done())
	}
	// No more work is handed out after completion.
	if _, ok := plan.NextBlock("a"); ok {
		t.Fatal("work handed out after Done")
	}
}

func TestDownloadNeverExceedsKInFlight(t *testing.T) {
	plan := threeOfSix(t)
	// Cloud a holds blocks 0, 3, 5; but only k=3 total may be in
	// flight — a alone can take 3.
	var taken []int
	for {
		b, ok := plan.NextBlock("a")
		if !ok {
			break
		}
		taken = append(taken, b)
	}
	if len(taken) != 3 {
		t.Fatalf("a took %d blocks, want 3", len(taken))
	}
	// Nothing left for the others while all K are in flight.
	if _, ok := plan.NextBlock("b"); ok {
		t.Fatal("over-issued beyond K in flight")
	}
	if len(plan.inflight) != 3 {
		t.Fatalf("%d blocks in flight, want 3", len(plan.inflight))
	}
}

func TestDownloadFailReassignsElsewhere(t *testing.T) {
	plan := threeOfSix(t)
	// Block 5 is held by a and c. a fails it; c must still be able
	// to supply it.
	var b5 int
	for {
		b, ok := plan.NextBlock("a")
		if !ok {
			t.Fatal("a ran out before block 5")
		}
		if b == 5 {
			b5 = b
			break
		}
		plan.Complete("a", b)
	}
	plan.Fail("a", b5)
	// a no longer offers 5.
	for {
		b, ok := plan.NextBlock("a")
		if !ok {
			break
		}
		if b == 5 {
			t.Fatal("failed source offered the same block again")
		}
		plan.Complete("a", b)
	}
	if plan.Done() {
		return // already got k elsewhere; fine
	}
	got, ok := plan.NextBlock("c")
	if !ok {
		t.Fatal("c has no work though block 5 is outstanding")
	}
	plan.Complete("c", got)
}

func TestDownloadRareBlockPreferred(t *testing.T) {
	// Cloud a holds block 0 (sole source) and block 1 (also on b).
	// a must be asked for the rare block first.
	plan, err := NewDownloadPlan(2, map[int][]string{
		0: {"a"},
		1: {"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := plan.NextBlock("a")
	if !ok || b != 0 {
		t.Fatalf("a handed block %d, want rare block 0", b)
	}
}

func TestDownloadMarkDead(t *testing.T) {
	plan := threeOfSix(t)
	plan.MarkDead("a")
	if _, ok := plan.NextBlock("a"); ok {
		t.Fatal("dead cloud got work")
	}
	if plan.HasWork("a") {
		t.Fatal("dead cloud listed as source")
	}
	// b supplies 1 and 4, c supplies 2 and 5: still k=3 reachable.
	for _, step := range []struct {
		cloud string
	}{{"b"}, {"c"}, {"b"}} {
		b, ok := plan.NextBlock(step.cloud)
		if !ok {
			t.Fatalf("no work for %s", step.cloud)
		}
		plan.Complete(step.cloud, b)
	}
	if !plan.Done() {
		t.Fatal("not done after k blocks from surviving clouds")
	}
}

func TestDownloadStuck(t *testing.T) {
	plan, err := NewDownloadPlan(3, map[int][]string{
		0: {"a"}, 1: {"a"}, 2: {"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan.MarkDead("a")
	b, ok := plan.NextBlock("b")
	if !ok {
		t.Fatal("no work for the live cloud")
	}
	plan.Complete("b", b)
	// Fewer than k blocks were reachable: the plan ends short, with no
	// work left for anyone.
	if plan.Done() || plan.HasWork("a") || plan.HasWork("b") {
		t.Fatal("plan with < k reachable blocks still looks finishable")
	}
}

func TestDownloadCloudDone(t *testing.T) {
	plan := threeOfSix(t)
	if !plan.HasWork("b") {
		t.Fatal("b done though it holds needed blocks")
	}
	b1, _ := plan.NextBlock("b")
	plan.Complete("b", b1)
	b2, _ := plan.NextBlock("b")
	plan.Complete("b", b2)
	// b held blocks 1 and 4; both done now.
	if plan.HasWork("b") {
		t.Fatal("b not done after supplying all its blocks")
	}
}

func TestDownloadCompleteMismatchPanics(t *testing.T) {
	plan := threeOfSix(t)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Complete did not panic")
		}
	}()
	plan.Complete("a", 4)
}

func TestHedgeDuplicateFetch(t *testing.T) {
	plan := threeOfSix(t)
	// Block 5 is held by a and c. Primary fetch from a, hedge onto c.
	var b5taken bool
	for {
		b, ok := plan.NextBlock("a")
		if !ok {
			break
		}
		if b == 5 {
			b5taken = true
		}
	}
	if !b5taken {
		t.Fatal("cloud a never took block 5")
	}
	if plan.Hedge(5, "a") {
		t.Error("hedging onto the cloud already fetching must be refused")
	}
	if plan.Hedge(5, "b") {
		t.Error("hedging onto a cloud that does not hold the block must be refused")
	}
	if !plan.Hedge(5, "c") {
		t.Fatal("valid hedge refused")
	}
	if plan.Hedge(5, "c") {
		t.Error("second hedge by the same cloud must be refused")
	}

	// The hedge (c) wins: Complete must accept it and clear the flight.
	plan.Complete("c", 5)
	if plan.Hedge(5, "c") {
		t.Error("hedging a completed block must be refused")
	}
	// The loser (a) is cancelled by the engine without plan calls; the
	// block stays done and is never re-handed out.
	if _, ok := plan.NextBlock("c"); ok {
		t.Error("done/hedged state leaked assignable work for c")
	}
}

func TestHedgePrimaryFailureKeepsHedgeRunning(t *testing.T) {
	plan := threeOfSix(t)
	// Take block 5 on a, hedge on c, then the primary fails: the block
	// must remain in flight (the hedge is still fetching) and not be
	// reassignable until the hedge also resolves.
	for {
		if _, ok := plan.NextBlock("a"); !ok {
			break
		}
	}
	if !plan.Hedge(5, "c") {
		t.Fatal("hedge refused")
	}
	plan.Fail("a", 5)
	plan.mu.Lock()
	still := len(plan.inflight[5])
	plan.mu.Unlock()
	if still != 1 {
		t.Errorf("block 5 has %d in-flight fetchers after primary failure, want 1 (the hedge)", still)
	}
	plan.Complete("c", 5)
	if !plan.done[5] {
		t.Error("hedge completion not recorded")
	}
}

func TestHedgeRefusedForIdleOrDeadTargets(t *testing.T) {
	plan := threeOfSix(t)
	if plan.Hedge(5, "c") {
		t.Error("hedging a block that is not in flight must be refused")
	}
	for {
		if _, ok := plan.NextBlock("a"); !ok {
			break
		}
	}
	plan.MarkDead("c")
	if plan.Hedge(5, "c") {
		t.Error("hedging onto a dead cloud must be refused")
	}
}
