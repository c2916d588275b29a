package sched

import (
	"testing"
	"testing/quick"
)

var paperParams = Params{N: 5, K: 3, Kr: 3, Ks: 2}

var fiveClouds = []string{"c0", "c1", "c2", "c3", "c4"}

func mustUploadPlan(t *testing.T, p Params, clouds []string) *UploadPlan {
	t.Helper()
	plan, err := NewUploadPlan(p, clouds)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestUploadPlanValidation(t *testing.T) {
	if _, err := NewUploadPlan(Params{N: 2, K: 3, Kr: 3, Ks: 2}, []string{"a", "b"}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := NewUploadPlan(paperParams, []string{"a"}); err == nil {
		t.Fatal("cloud count mismatch accepted")
	}
}

func TestEvenDeterministicAssignment(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	// Each cloud gets exactly its fair share (1 block) as the first
	// NextBlock; assignment is deterministic across plans.
	plan2 := mustUploadPlan(t, paperParams, fiveClouds)
	for _, c := range fiveClouds {
		b1, ok1 := plan.NextBlock(c, true)
		b2, ok2 := plan2.NextBlock(c, true)
		if !ok1 || !ok2 || b1 != b2 {
			t.Fatalf("assignment not deterministic for %s: (%d,%v) vs (%d,%v)", c, b1, ok1, b2, ok2)
		}
		if b1 >= paperParams.NormalBlocks() {
			t.Fatalf("first block for %s is %d, beyond the normal set", c, b1)
		}
	}
}

func TestAvailabilityAfterKBlocks(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	if plan.Available() {
		t.Fatal("empty plan available")
	}
	for i, c := range fiveClouds[:3] { // K = 3
		b, ok := plan.NextBlock(c, true)
		if !ok {
			t.Fatalf("no block for %s", c)
		}
		plan.Complete(c, b)
		if got := plan.Available(); got != (i == 2) {
			t.Fatalf("after %d completions Available = %v", i+1, got)
		}
	}
}

func TestReliabilityNeedsEveryCloud(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	for _, c := range fiveClouds[:4] {
		b, _ := plan.NextBlock(c, true)
		plan.Complete(c, b)
	}
	if reliable(plan) {
		t.Fatal("reliable with one cloud missing its fair share")
	}
	b, _ := plan.NextBlock("c4", true)
	plan.Complete("c4", b)
	if !reliable(plan) {
		t.Fatal("not reliable after every cloud got its fair share")
	}
}

func TestOverProvisioningToFastClouds(t *testing.T) {
	// The Fig 7 scenario: clouds 1 and 2 are fast and finish their
	// fair shares; clouds 3 and 4 are slow (blocks stay in flight).
	// The fast clouds must receive over-provisioned parity blocks.
	p := Params{N: 4, K: 4, Kr: 2, Ks: 2}
	clouds := []string{"c1", "c2", "c3", "c4"}
	plan := mustUploadPlan(t, p, clouds)
	// fair share = 2, max per cloud = ceil(4/1)-1 = 3, normal = 8.

	// All clouds take their fair share into flight.
	taken := make(map[string][]int)
	for _, c := range clouds {
		for {
			b, ok := plan.NextBlock(c, true)
			if !ok {
				break
			}
			taken[c] = append(taken[c], b)
			if len(taken[c]) == 2 {
				break
			}
		}
	}
	// Fast clouds complete; slow clouds' blocks remain in flight.
	for _, c := range []string{"c1", "c2"} {
		for _, b := range taken[c] {
			plan.Complete(c, b)
		}
	}
	// Fast clouds ask again: they must get over-provisioned blocks.
	for _, c := range []string{"c1", "c2"} {
		b, ok := plan.NextBlock(c, true)
		if !ok {
			t.Fatalf("fast cloud %s got no over-provisioned block", c)
		}
		if b < p.NormalBlocks() {
			t.Fatalf("expected extra block (>= %d), got %d", p.NormalBlocks(), b)
		}
		plan.Complete(c, b)
	}
	extras := 0
	for b := range plan.Placement() {
		if b >= p.NormalBlocks() {
			extras++
		}
	}
	if extras != 2 {
		t.Fatalf("%d over-provisioned blocks uploaded, want 2", extras)
	}
}

func TestSecurityCapNeverExceeded(t *testing.T) {
	p := Params{N: 4, K: 4, Kr: 2, Ks: 2} // max 3 per cloud
	clouds := []string{"c1", "c2", "c3", "c4"}
	plan := mustUploadPlan(t, p, clouds)
	// c1 completes everything it is ever offered; the others never
	// start, so over-provisioning stays open — but c1 must stop at
	// the per-cloud cap.
	count := 0
	for {
		b, ok := plan.NextBlock("c1", true)
		if !ok {
			break
		}
		plan.Complete("c1", b)
		count++
		if count > 10 {
			t.Fatal("runaway assignment")
		}
	}
	if count != p.MaxPerCloud() {
		t.Fatalf("c1 uploaded %d blocks, cap is %d", count, p.MaxPerCloud())
	}
}

func TestOverProvisioningStopsWhenReliable(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	for _, c := range fiveClouds {
		b, _ := plan.NextBlock(c, true)
		plan.Complete(c, b)
	}
	if !reliable(plan) {
		t.Fatal("should be reliable")
	}
	for _, c := range fiveClouds {
		if _, ok := plan.NextBlock(c, true); ok {
			t.Fatalf("%s received work after reliability was met", c)
		}
	}
}

func TestFailRequeuesFairBlock(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	b, _ := plan.NextBlock("c0", true)
	plan.Fail("c0", b)
	b2, ok := plan.NextBlock("c0", true)
	if !ok || b2 != b {
		t.Fatalf("failed fair block not requeued: got (%d, %v), want %d", b2, ok, b)
	}
}

func TestFailRecyclesExtraBlockID(t *testing.T) {
	// fair share 2, per-cloud cap 3: room for one extra per cloud.
	p := Params{N: 2, K: 3, Kr: 2, Ks: 1}
	clouds := []string{"a", "b"}
	plan := mustUploadPlan(t, p, clouds)
	// a completes its fair share (2 blocks).
	for i := 0; i < 2; i++ {
		b, ok := plan.NextBlock("a", true)
		if !ok {
			t.Fatal("no fair block")
		}
		plan.Complete("a", b)
	}
	// b hasn't finished, so a gets an extra; fail it.
	extra, ok := plan.NextBlock("a", true)
	if !ok || extra < p.NormalBlocks() {
		t.Fatalf("expected extra block, got (%d, %v)", extra, ok)
	}
	plan.Fail("a", extra)
	again, ok := plan.NextBlock("a", true)
	if !ok || again != extra {
		t.Fatalf("failed extra ID not recycled: got (%d, %v), want %d", again, ok, extra)
	}
}

// One exclusion path, whatever the reason: the cloud gets no work, is
// done for the plan, and its fair share no longer counts toward
// Reliable — while the other clouds' still does. Only IsFull tells the
// reasons apart (core reads it to call a shortfall a capacity problem).
func TestExcludeWritesCloudOff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reason Reason
	}{{"dead", Dead}, {"full", Full}} {
		t.Run(tc.name, func(t *testing.T) {
			plan := mustUploadPlan(t, paperParams, fiveClouds)
			plan.Exclude("c0", tc.reason, []string{"c1"})
			if got := plan.IsFull("c0"); got != (tc.reason == Full) {
				t.Fatalf("IsFull(c0) = %v after Exclude(%s)", got, tc.name)
			}
			if _, ok := plan.NextBlock("c0", true); ok {
				t.Fatal("excluded cloud received work")
			}
			// Reliability ignores the excluded cloud, and only it.
			for _, c := range fiveClouds[1:] {
				if reliable(plan) {
					t.Fatalf("plan reliable with %s's fair share outstanding", c)
				}
				b, _ := plan.NextBlock(c, true)
				plan.Complete(c, b)
			}
			if !reliable(plan) {
				t.Fatal("reliability must ignore excluded clouds")
			}
		})
	}
}

func TestAvailabilityReachableWithDeadCloudViaOverProvisioning(t *testing.T) {
	// K=3 but one cloud dead: the remaining four clouds must still
	// reach availability (3 blocks) — trivially via their fair
	// shares here, and via extras when fair shares are exhausted.
	p := Params{N: 3, K: 4, Kr: 2, Ks: 2} // fair 2, normal 6, maxPC 3, maxBlocks 9
	clouds := []string{"a", "b", "dead"}
	plan := mustUploadPlan(t, p, clouds)
	plan.Exclude("dead", Dead, nil)
	uploaded := 0
	for _, c := range []string{"a", "b"} {
		for {
			b, ok := plan.NextBlock(c, true)
			if !ok {
				break
			}
			plan.Complete(c, b)
			uploaded++
		}
	}
	if !plan.Available() {
		t.Fatalf("not available with %d blocks uploaded (need %d)", uploaded, p.K)
	}
	if !reliable(plan) {
		t.Fatal("not reliable over the live clouds")
	}
}

func TestPlacementRecordsCloudPerBlock(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	want := make(map[int]string)
	for _, c := range fiveClouds {
		b, _ := plan.NextBlock(c, true)
		plan.Complete(c, b)
		want[b] = c
	}
	got := plan.Placement()
	if len(got) != len(want) {
		t.Fatalf("placement size %d, want %d", len(got), len(want))
	}
	for b, c := range want {
		if got[b] != c {
			t.Fatalf("block %d on %s, want %s", b, got[b], c)
		}
	}
	if blocks := plan.UploadedBlocks(); len(blocks) != 5 {
		t.Fatalf("UploadedBlocks = %v", blocks)
	}
}

func TestCompleteWithoutNextBlockPanics(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Complete did not panic")
		}
	}()
	plan.Complete("c0", 99)
}

// TestUploadPlanPropertySecurityInvariant drives random plans and
// checks the security bound: no cloud ever holds more than
// MaxPerCloud blocks, and Ks-1 clouds never hold K blocks together.
func TestUploadPlanPropertySecurityInvariant(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := 2 + int(nRaw)%5
		k := 1 + int(kRaw)%8
		kr := 1 + int(seed&0xff)%n
		ks := 1 + int((seed>>8)&0xff)%kr
		p := Params{N: n, K: k, Kr: kr, Ks: ks}
		if p.Validate() != nil {
			return true
		}
		clouds := make([]string, n)
		for i := range clouds {
			clouds[i] = string(rune('A' + i))
		}
		plan, err := NewUploadPlan(p, clouds)
		if err != nil {
			return false
		}
		// Pseudo-random completion order.
		s := seed
		next := func(m int) int {
			s = s*6364136223846793005 + 1442695040888963407
			v := int(s % int64(m))
			if v < 0 {
				v += m
			}
			return v
		}
		for steps := 0; steps < 200; steps++ {
			c := clouds[next(n)]
			b, ok := plan.NextBlock(c, true)
			if !ok {
				continue
			}
			if next(10) == 0 {
				plan.Fail(c, b)
			} else {
				plan.Complete(c, b)
			}
		}
		placement := plan.Placement()
		perCloud := make(map[string]int)
		for _, c := range placement {
			perCloud[c]++
		}
		for _, cnt := range perCloud {
			if cnt > p.MaxPerCloud() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFailoverReassignsDeadClouds(t *testing.T) {
	// The acceptance scenario: N=4, K=4, Kr=2, Ks=2 gives fair share 2,
	// normal blocks 8, max 3 per cloud. One cloud dies before uploading
	// anything; its 2 normal blocks must land on the 3 healthy clouds
	// without any of them exceeding the per-cloud bound.
	p := Params{N: 4, K: 4, Kr: 2, Ks: 2}
	clouds := []string{"c1", "c2", "c3", "c4"}
	plan := mustUploadPlan(t, p, clouds)

	moved := plan.Exclude("c4", Dead, []string{"c2", "c1", "c3"})
	if moved != p.FairShare() {
		t.Fatalf("moved = %d, want %d", moved, p.FairShare())
	}
	if _, ok := plan.NextBlock("c4", true); ok {
		t.Fatal("dead cloud still receives work")
	}
	// Drain the plan: every live cloud uploads everything offered.
	counts := make(map[string]int)
	for again := true; again; {
		again = false
		for _, c := range clouds[:3] {
			if b, ok := plan.NextBlock(c, true); ok {
				plan.Complete(c, b)
				counts[c]++
				again = true
			}
		}
	}
	total := 0
	for c, n := range counts {
		if n > p.MaxPerCloud() {
			t.Errorf("%s holds %d blocks, above the MaxPerCloud=%d bound", c, n, p.MaxPerCloud())
		}
		total += n
	}
	// All 8 normal blocks must have found a home on the 3 live clouds.
	if total < p.NormalBlocks() {
		t.Errorf("only %d of %d normal blocks uploaded after failover", total, p.NormalBlocks())
	}
	if !plan.Available() {
		t.Error("plan not available after failover drain")
	}
	if !reliable(plan) {
		t.Error("plan not reliable: live clouds should all have their fair share")
	}
}

func TestFailoverRespectsRankedOrder(t *testing.T) {
	p := Params{N: 4, K: 4, Kr: 2, Ks: 2}
	plan := mustUploadPlan(t, p, []string{"c1", "c2", "c3", "c4"})
	plan.Exclude("c1", Dead, []string{"c3", "c2", "c4"})
	// c3 is ranked healthiest and has capacity 3-0-2=1, so it takes the
	// first orphan; the second also fits there? No: after one append its
	// queued count is 3 >= MaxPerCloud, so the second goes to c2.
	b3, ok3 := plan.NextBlock("c3", true)
	_ = b3
	if !ok3 {
		t.Fatal("c3 should have work")
	}
	q3 := 1
	for {
		if _, ok := plan.NextBlock("c3", true); !ok {
			break
		}
		q3++
	}
	if q3 != p.MaxPerCloud() {
		t.Errorf("c3 assigned %d blocks, want the full MaxPerCloud=%d", q3, p.MaxPerCloud())
	}
}

func TestFailAfterDeathReassignsInFlightBlock(t *testing.T) {
	p := Params{N: 4, K: 4, Kr: 2, Ks: 2}
	for _, reason := range []Reason{Dead, Full} {
		plan := mustUploadPlan(t, p, []string{"c1", "c2", "c3", "c4"})
		b, ok := plan.NextBlock("c4", true)
		if !ok {
			t.Fatal("no block for c4")
		}
		// c4 is excluded while b is in flight; the orphaned queue is
		// reassigned first, then the in-flight block fails and must also
		// move to a live cloud rather than back onto the excluded queue.
		plan.Exclude("c4", reason, nil)
		plan.Fail("c4", b)
		seen := false
		for _, c := range []string{"c1", "c2", "c3"} {
			for {
				got, ok := plan.NextBlock(c, true)
				if !ok {
					break
				}
				if got == b {
					seen = true
				}
			}
		}
		if !seen {
			t.Errorf("reason %d: block %d stranded on the excluded cloud's queue", reason, b)
		}
	}
}

func TestFailoverDropsWhenNoCapacity(t *testing.T) {
	// Two dead clouds leave 2x2 orphans but only 2 live clouds with
	// capacity (3-2=1 spare slot each): 2 move, 2 drop, and the plan
	// still reaches availability (K=4 <= 6 placeable blocks).
	p := Params{N: 4, K: 4, Kr: 2, Ks: 2}
	plan := mustUploadPlan(t, p, []string{"c1", "c2", "c3", "c4"})
	moved := plan.Exclude("c3", Dead, nil)
	moved += plan.Exclude("c4", Dead, nil)
	if moved != 2 {
		t.Fatalf("moved = %d, want 2 (one spare slot per live cloud)", moved)
	}
}

func TestOverprovisionReservesCapacityForOrphans(t *testing.T) {
	// N=4, K=4, Kr=2, Ks=2: fair 2, normal 8, cap 3/cloud. c4's two
	// normal blocks are in flight when it dies; the 9 live slots hold
	// 6 fair + 2 orphans, leaving exactly 1 for extras. Over-
	// provisioning must stop at that one extra instead of starving the
	// orphans out of their slots.
	p := Params{N: 4, K: 4, Kr: 2, Ks: 2}
	clouds := []string{"c1", "c2", "c3", "c4"}
	plan, err := NewUploadPlan(p, clouds)
	if err != nil {
		t.Fatal(err)
	}
	// c4 takes its fair share in flight, then dies.
	d1, _ := plan.NextBlock("c4", true)
	d2, _ := plan.NextBlock("c4", true)
	plan.Exclude("c4", Dead, nil)

	// The healthy clouds drain everything on offer: fair shares first,
	// then whatever extras the plan is willing to grant.
	extras := 0
	for _, c := range []string{"c1", "c2", "c3"} {
		for {
			b, ok := plan.NextBlock(c, true)
			if !ok {
				break
			}
			if b >= p.NormalBlocks() {
				extras++
			}
			plan.Complete(c, b)
		}
	}
	if extras != 1 {
		t.Fatalf("granted %d extras with 2 orphans over 3 spare slots, want 1", extras)
	}

	// The orphans fail on the dead cloud, reassign, and complete.
	plan.Fail("c4", d1)
	plan.Fail("c4", d2)
	for _, c := range []string{"c1", "c2", "c3"} {
		for {
			b, ok := plan.NextBlock(c, true)
			if !ok || b >= p.NormalBlocks() {
				break
			}
			plan.Complete(c, b)
		}
	}
	placement := plan.Placement()
	normal := 0
	perCloud := make(map[string]int)
	for b, c := range placement {
		perCloud[c]++
		if b < p.NormalBlocks() {
			normal++
		}
	}
	if normal != p.NormalBlocks() {
		t.Fatalf("%d of %d normal blocks placed: %v", normal, p.NormalBlocks(), placement)
	}
	for c, n := range perCloud {
		if n > p.MaxPerCloud() {
			t.Errorf("%s holds %d blocks, above cap %d", c, n, p.MaxPerCloud())
		}
	}
}

func TestSeedUploadedSkipsReupload(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	// Blocks 0 and 1 survived a crashed pass on their deterministic
	// owners (b mod N).
	if !plan.SeedUploaded(0, "c0") || !plan.SeedUploaded(1, "c1") {
		t.Fatal("seeding fresh blocks refused")
	}
	if plan.SeedUploaded(0, "c0") {
		t.Fatal("duplicate seed accepted")
	}
	if plan.SeedUploaded(-1, "c0") {
		t.Fatal("negative block ID accepted")
	}
	// The owners must not be handed their seeded blocks again.
	if b, ok := plan.NextBlock("c0", true); ok && b == 0 {
		t.Fatalf("c0 re-assigned seeded block %d", b)
	}
	if b, ok := plan.NextBlock("c1", true); ok && b == 1 {
		t.Fatalf("c1 re-assigned seeded block %d", b)
	}
	pl := plan.Placement()
	if pl[0] != "c0" || pl[1] != "c1" {
		t.Fatalf("placement missing seeded blocks: %v", pl)
	}
}

func TestSeedUploadedCountsTowardGoals(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	// Seed one full fair share everywhere but c4: K=3 seeds make the
	// segment available, and the plan is reliable once c4 uploads its
	// own share.
	for b := 0; b < paperParams.NormalBlocks(); b++ {
		owner := fiveClouds[b%len(fiveClouds)]
		if owner == "c4" {
			continue
		}
		plan.SeedUploaded(b, owner)
	}
	if !plan.Available() {
		t.Fatal("plan not available after seeding K blocks")
	}
	if reliable(plan) {
		t.Fatal("plan reliable while c4 owes its fair share")
	}
	for {
		b, ok := plan.NextBlock("c4", true)
		if !ok {
			break
		}
		plan.Complete("c4", b)
	}
	if !reliable(plan) {
		t.Fatal("plan not reliable after the last cloud caught up")
	}
}

func TestSeedUploadedExtraAdvancesCursor(t *testing.T) {
	plan := mustUploadPlan(t, paperParams, fiveClouds)
	extra := paperParams.NormalBlocks() + 1
	if !plan.SeedUploaded(extra, "c2") {
		t.Fatal("seeding an extra refused")
	}
	// Drain every assignable block: the seeded extra ID must never be
	// handed out again.
	for moved := true; moved; {
		moved = false
		for _, c := range fiveClouds {
			if b, ok := plan.NextBlock(c, true); ok {
				if b == extra {
					t.Fatalf("seeded extra %d re-assigned to %s", extra, c)
				}
				plan.Complete(c, b)
				moved = true
			}
		}
	}
}

// The two questions a continuous batch asks a plan: may this cloud
// still have an over-provisioned block (the driver says no once the
// batch is available; queued normal blocks flow regardless), and is any
// fair-share block still waiting for a connection (Queued — the
// commit's reason to overlap the tail). Steps run in order on one plan.
func TestExtrasRefusedAndQueuedBacklog(t *testing.T) {
	// fair 2, normal 8, cap 3 per cloud.
	plan := mustUploadPlan(t, Params{N: 4, K: 4, Kr: 2, Ks: 2}, []string{"c1", "c2", "c3", "c4"})
	normal := plan.Params().NormalBlocks()
	var held int // a block one step takes and a later one fails
	take := func(c string, extras, wantOK, wantExtra bool) func(*testing.T) {
		return func(t *testing.T) {
			b, ok := plan.NextBlock(c, extras)
			if ok != wantOK || (ok && (b >= normal) != wantExtra) {
				t.Fatalf("NextBlock(%s, extras=%v) = (%d, %v), want ok=%v extra=%v", c, extras, b, ok, wantOK, wantExtra)
			}
			if ok {
				held = b
			}
		}
	}
	complete := func(c string) func(*testing.T) { return func(*testing.T) { plan.Complete(c, held) } }
	for _, step := range []struct {
		name   string
		do     func(*testing.T)
		queued int
	}{
		{"fresh plan: every normal block queued", func(*testing.T) {}, 8},
		{"c1 takes a fair block", take("c1", false, true, false), 7},
		{"and lands it", complete("c1"), 7},
		{"c1's second fair block goes out with extras refused", take("c1", false, true, false), 6},
		{"and lands: c1's fair share is up", complete("c1"), 6},
		{"extras refused: c1 gets nothing though others lag", take("c1", false, false, false), 6},
		{"extras allowed: c1 gets one, the backlog does not move", take("c1", true, true, true), 6},
		{"c2 takes a fair block", take("c2", false, true, false), 5},
		{"it fails: back on c2's queue", func(*testing.T) { plan.Fail("c2", held) }, 6},
		{"c3 excluded: its queued blocks move to c2 and c4, still queued", func(*testing.T) { plan.Exclude("c3", Dead, []string{"c2"}) }, 6},
		{"c4 takes a fair block", take("c4", false, true, false), 5},
		{"c4 excluded with it in flight: its two queued ones have no home", func(*testing.T) { plan.Exclude("c4", Full, nil) }, 3},
		{"the in-flight block fails: no home either", func(*testing.T) { plan.Fail("c4", held) }, 3},
		{"c2 drains its own and the adopted block, extras refused", func(t *testing.T) {
			for i := 0; i < 3; i++ {
				take("c2", false, true, false)(t)
				plan.Complete("c2", held)
			}
		}, 0},
	} {
		step.do(t)
		if got := queued(plan); got != step.queued {
			t.Fatalf("%s: %d blocks queued, want %d", step.name, got, step.queued)
		}
	}
	if !reliable(plan) {
		t.Fatal("the live clouds' fair shares are up: the plan must be reliable")
	}
}

// queued returns the number of normal blocks not yet handed out: the
// fair-share work that is neither landed nor in flight. Failed blocks
// count again once re-queued; blocks an exclusion could not re-home
// are dropped from the plan and do not.
func queued(p *UploadPlan) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, q := range p.fairQueue {
		n += len(q)
	}
	return n
}

// reliable reports whether the plan met the paper's reliability goal:
// every cloud still in it holds its fair share.
func reliable(p *UploadPlan) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reliableLocked()
}
