package scrub

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"unidrive/internal/chunker"
	"unidrive/internal/cloudsim"
	"unidrive/internal/erasure"
	"unidrive/internal/meta"
	"unidrive/internal/sched"
)

// paperParams are the paper's placement parameters for five clouds:
// K=3, Kr=3, Ks=2 — a normal placement of 5 blocks, at most 2 of a
// segment's blocks on any one cloud.
var paperParams = sched.Params{N: 5, K: 3, Kr: 3, Ks: 2}

// addWideSegment encodes content under a (k, n) code wider than the
// cloud set and places block i on cloud i mod clouds, recording the
// segment with its stamps.
func (h *harness) addWideSegment(t *testing.T, seed int64, size, k, n int) *meta.Segment {
	t.Helper()
	content := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(content)
	coder, err := erasure.NewCoder(k, n)
	if err != nil {
		t.Fatal(err)
	}
	seg := &meta.Segment{ID: chunker.SegmentID(content), Length: size, K: k, N: n, RefCount: 1}
	for i, b := range coder.Encode(content) {
		cloudName := fmt.Sprintf("c%d", i%len(h.stores))
		if err := h.engine.PutBlock(context.Background(), cloudName, seg.ID, i, b); err != nil {
			t.Fatal(err)
		}
		seg.Blocks = append(seg.Blocks, meta.BlockLocation{BlockID: i, CloudID: cloudName, Checksum: meta.BlockSum(b)})
	}
	h.img.UpsertSegment(seg)
	return seg
}

// A repair that cannot overwrite in place never brings another cloud
// above MaxPerCloud: with every reachable cloud at the cap, the
// damaged block is left for a later cycle — not moved, not reported as
// data loss.
func TestScrubRepairKeepsTheSecurityCap(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addWideSegment(t, 50, 6000, 3, 10) // 2 blocks on every cloud
	loc := seg.Blocks[1]
	idx := h.cloudIndex(t, loc.CloudID)
	h.flaky[idx].CorruptPath(h.blockPath(seg.ID, 1), cloudsim.CorruptBitFlip)
	// Ops on c1 this cycle: 0=List, 1=the corrupt fetch; everything
	// after, the repair upload included, hits the outage.
	h.flaky[idx].AddOutageWindow(h.flaky[idx].Ops()+2, 1<<30)

	rep, err := h.scrubber(t).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksCorrupt != 1 {
		t.Fatalf("BlocksCorrupt = %d, want 1", rep.BlocksCorrupt)
	}
	cur, _ := h.img.Segment(seg.ID)
	for _, name := range h.engine.CloudNames() {
		if n := blocksOn(cur, name); n > paperParams.MaxPerCloud() {
			t.Errorf("%s holds %d blocks of the segment, above MaxPerCloud %d", name, n, paperParams.MaxPerCloud())
		}
	}
	if rep.RepairedBlocks != 0 || rep.Committed {
		t.Errorf("repaired %d blocks (committed %v) with every reachable cloud at the cap", rep.RepairedBlocks, rep.Committed)
	}
	if len(rep.Unrepairable) != 0 {
		t.Errorf("a reconstructible segment reported as data loss: %v", rep.Unrepairable)
	}
}

// blocksOn counts the blocks seg records on cloud.
func blocksOn(seg *meta.Segment, cloud string) int {
	n := 0
	for _, b := range seg.Blocks {
		if b.CloudID == cloud {
			n++
		}
	}
	return n
}
