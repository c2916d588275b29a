package scrub

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"unidrive/internal/capacity"
	"unidrive/internal/chunker"
	"unidrive/internal/erasure"
	"unidrive/internal/meta"
	"unidrive/internal/transfer"
)

// capScrubber builds a scrubber with the capacity tracker and thin
// re-expansion knobs wired (paper params: Target 5, MaxPerCloud 2).
func (h *harness) capScrubber(t *testing.T, tr *capacity.Tracker, target, maxPerCloud int) *Scrubber {
	t.Helper()
	s, err := New(Config{
		Engine:      h.engine,
		Image:       func(context.Context) (*meta.Image, error) { return h.img, nil },
		Commit:      h.commit,
		Journal:     h.jrnl,
		Capacity:    tr,
		Target:      target,
		MaxPerCloud: maxPerCloud,
		Device:      "tester",
		Obs:         h.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// addThinSegment encodes content but places only blocks 0..nPlace-1 on
// clouds c0..c(nPlace-1), recording the segment with Thin set — the
// shape a quota-constrained availability commit leaves behind.
func (h *harness) addThinSegment(t *testing.T, seed int64, size, k, nPlace int) *meta.Segment {
	t.Helper()
	content := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(content)
	n := len(h.stores)
	coder, err := erasure.NewCoder(k, n)
	if err != nil {
		t.Fatal(err)
	}
	blocks := coder.Encode(content)
	seg := &meta.Segment{
		ID: chunker.SegmentID(content), Length: size, K: k, N: n, RefCount: 1, Thin: true,
	}
	ctx := context.Background()
	for i := 0; i < nPlace; i++ {
		cloudName := fmt.Sprintf("c%d", i)
		if err := h.engine.PutBlock(ctx, cloudName, seg.ID, i, blocks[i]); err != nil {
			t.Fatal(err)
		}
		seg.Blocks = append(seg.Blocks, meta.BlockLocation{
			BlockID: i, CloudID: cloudName, Checksum: meta.BlockSum(blocks[i]),
		})
	}
	h.img.SetSegment(seg)
	return seg
}

// A repair whose damaged copy sits on a quota-full cloud must land the
// replacement elsewhere — the full cloud still serves reads, it just
// cannot take the write.
func TestScrubRepairSkipsQuotaFullClouds(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addSegment(t, 40, 6000, 3, true)

	loc := seg.Blocks[1]
	if n := h.engine.DeleteBlocks(context.Background(),
		[]transfer.BlockRef{{SegID: seg.ID, BlockID: 1, Cloud: loc.CloudID}}); n != 1 {
		t.Fatalf("setup delete removed %d blocks", n)
	}
	tr := capacity.NewTracker(capacity.Config{})
	tr.ObserveQuotaExceeded(loc.CloudID)

	rep, err := h.capScrubber(t, tr, 5, 2).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksMissing != 1 || rep.RepairedBlocks != 1 {
		t.Fatalf("missing/repaired = %d/%d, want 1/1", rep.BlocksMissing, rep.RepairedBlocks)
	}
	if len(rep.UnrepairableCapacity) != 0 {
		t.Fatalf("repair landed yet segment reported capacity-blocked: %v", rep.UnrepairableCapacity)
	}
	cur, _ := h.img.Segment(seg.ID)
	for _, b := range cur.Blocks {
		if b.BlockID == 1 && b.CloudID == loc.CloudID {
			t.Fatalf("replacement for block 1 written to the quota-full cloud %s", loc.CloudID)
		}
	}
	// The full cloud's committed path stayed untouched (no bounce-retry
	// write landed there).
	if _, err := h.engine.FetchBlock(context.Background(), loc.CloudID, seg.ID, 1); err == nil {
		t.Fatal("block 1 reappeared on the quota-full cloud")
	}
}

// With every cloud quota-full a damaged segment is reported
// capacity-blocked — intact, deferred — NOT unrepairable data loss.
func TestScrubUnrepairableCapacityDistinctFromDataLoss(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addSegment(t, 41, 6000, 3, true)
	loc := seg.Blocks[2]
	if n := h.engine.DeleteBlocks(context.Background(),
		[]transfer.BlockRef{{SegID: seg.ID, BlockID: 2, Cloud: loc.CloudID}}); n != 1 {
		t.Fatalf("setup delete removed %d blocks", n)
	}
	tr := capacity.NewTracker(capacity.Config{})
	for i := 0; i < 5; i++ {
		tr.ObserveQuotaExceeded(fmt.Sprintf("c%d", i))
	}

	rep, err := h.capScrubber(t, tr, 5, 2).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unrepairable) != 0 {
		t.Fatalf("capacity block misreported as data loss: %v", rep.Unrepairable)
	}
	if len(rep.UnrepairableCapacity) != 1 || rep.UnrepairableCapacity[0] != seg.ID {
		t.Fatalf("UnrepairableCapacity = %v, want [%s]", rep.UnrepairableCapacity, seg.ID)
	}
	if rep.RepairedBlocks != 0 {
		t.Fatalf("RepairedBlocks = %d with all clouds full", rep.RepairedBlocks)
	}
	if got := counter(h.reg, "scrub.capacity_blocked_segments"); got != 1 {
		t.Fatalf("scrub.capacity_blocked_segments = %d, want 1", got)
	}
}

// A thin segment is re-expanded to the full target placement once
// clouds with space exist, and its thin mark is cleared in the commit.
func TestScrubExpandThinClearsThinMark(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addThinSegment(t, 42, 6000, 3, 3)
	tr := capacity.NewTracker(capacity.Config{})

	rep, err := h.capScrubber(t, tr, 5, 2).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ThinSegments != 1 {
		t.Fatalf("ThinSegments = %d, want 1", rep.ThinSegments)
	}
	if rep.ReexpandedBlocks != 2 || rep.ThinCleared != 1 {
		t.Fatalf("reexpanded/cleared = %d/%d, want 2/1", rep.ReexpandedBlocks, rep.ThinCleared)
	}
	if !rep.Committed {
		t.Fatal("re-expansion did not commit")
	}
	cur, _ := h.img.Segment(seg.ID)
	if cur.Thin {
		t.Fatal("thin mark survived a full re-expansion")
	}
	if len(cur.Blocks) != 5 {
		t.Fatalf("placement = %d blocks after re-expansion, want 5", len(cur.Blocks))
	}
	// The new copies must be readable where the commit says they are.
	for _, b := range cur.Blocks {
		if _, err := h.engine.FetchBlock(context.Background(), b.CloudID, seg.ID, b.BlockID); err != nil {
			t.Fatalf("committed block %d on %s unreadable: %v", b.BlockID, b.CloudID, err)
		}
	}
	if got := counter(h.reg, "scrub.thin_cleared"); got != 1 {
		t.Fatalf("scrub.thin_cleared = %d, want 1", got)
	}
}

// When every cloud is quota-full the thin segment stays thin — no
// commit, reported capacity-blocked — and a later cycle with space
// restored finishes the job.
func TestScrubExpandThinBlockedThenRecovers(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addThinSegment(t, 43, 6000, 3, 3)
	tr := capacity.NewTracker(capacity.Config{})
	for i := 0; i < 5; i++ {
		tr.ObserveQuotaExceeded(fmt.Sprintf("c%d", i))
	}

	rep, err := h.capScrubber(t, tr, 5, 2).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReexpandedBlocks != 0 || rep.ThinCleared != 0 || rep.Committed {
		t.Fatalf("blocked cycle wrote: %+v", rep)
	}
	if len(rep.UnrepairableCapacity) != 1 || rep.UnrepairableCapacity[0] != seg.ID {
		t.Fatalf("UnrepairableCapacity = %v, want [%s]", rep.UnrepairableCapacity, seg.ID)
	}
	cur, _ := h.img.Segment(seg.ID)
	if !cur.Thin || len(cur.Blocks) != 3 {
		t.Fatalf("blocked cycle mutated the segment: thin=%v blocks=%d", cur.Thin, len(cur.Blocks))
	}

	// Space returns (probe-after-free on every cloud): the next cycle
	// re-expands and clears the mark.
	for i := 0; i < 5; i++ {
		tr.ObserveDelete(fmt.Sprintf("c%d", i), 1)
	}
	rep2, err := h.capScrubber(t, tr, 5, 2).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ReexpandedBlocks != 2 || rep2.ThinCleared != 1 || !rep2.Committed {
		t.Fatalf("recovery cycle did not re-expand: %+v", rep2)
	}
	cur, _ = h.img.Segment(seg.ID)
	if cur.Thin || len(cur.Blocks) != 5 {
		t.Fatalf("segment not restored: thin=%v blocks=%d", cur.Thin, len(cur.Blocks))
	}
}
