package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/meta"
	"unidrive/internal/transfer"
)

// TestFetchVerified drives every way a segment can come back through
// the one entry point, in one call: a local-cache hit, a copy failing
// its stamped checksum (re-routed inside the batch), decoded content
// failing its SHA-1 (one replacement fetch without the suspects), and
// a segment corruption has left below K clean blocks (cloud.ErrCorrupt).
func TestFetchVerified(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	// One single-segment file per case, each committed by its own pass
	// so that each is over-provisioned (reshapeSegment wants six blocks).
	var segs []*meta.Segment
	plain := make(map[string][]byte)
	for i := 0; i < 4; i++ {
		path, content := fmt.Sprintf("f%d.bin", i), randContent(int64(900+i), 3000)
		writeFile(t, fa, path, content)
		syncOK(t, a)
		for _, ch := range a.chnk.Split([]byte(content)) {
			plain[ch.ID()] = ch.Data
		}
		segs = append(segs, fileSegments(t, a, path)[0])
	}

	// Fix the placements of the three that go over the network (one block
	// each on c0..c3, two on c4) so the fault surface is exact, and take
	// the stamp off the copy of the third that will rot on c0.
	for i := 1; i < 4; i++ {
		segs[i] = reshapeSegment(t, a, segs[i])
	}
	stripStamps(t, a, segs[2].ID, segs[2].Blocks[0].BlockID)

	b, _ := r.device(t, "beta")
	slowTail(r, "beta") // c0..c2 are tried first
	ctx := ctxT(t)
	img, err := b.store.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range segs {
		segs[i], _ = img.Segment(s.ID)
	}
	// 0: every copy rots, but the content is in the upload cache.
	rotten := make(map[string]bool)
	for _, blk := range segs[0].Blocks {
		if !rotten[blk.CloudID] {
			rotten[blk.CloudID] = true
			corruptOn(t, r, "beta", a, segs[0], blk.CloudID, cloudsim.CorruptStale)
		}
	}
	b.cacheSegment(segs[0].ID, plain[segs[0].ID])
	// 1: the stamped copy on c0 rots; the batch re-routes around it.
	corruptOn(t, r, "beta", a, segs[1], "c0", cloudsim.CorruptBitFlip)
	// 2: the unstamped copy on c0 rots; only the decode can tell.
	corruptOn(t, r, "beta", a, segs[2], "c0", cloudsim.CorruptStale)
	// 3: four of six copies rot; the two on c4 are not enough.
	for _, name := range []string{"c0", "c1", "c2", "c3"} {
		corruptOn(t, r, "beta", a, segs[3], name, cloudsim.CorruptBitFlip)
	}

	got := make([][]byte, len(segs))
	errs := make([]error, len(segs))
	calls := make([]int, len(segs))
	err = b.fetchVerified(ctx, segs, func(i int, data []byte, err error) {
		calls[i]++
		got[i], errs[i] = data, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		if calls[i] != 1 {
			t.Errorf("segment %d delivered %d times, want exactly once", i, calls[i])
		}
		if i < 3 && (errs[i] != nil || !bytes.Equal(got[i], plain[seg.ID])) {
			t.Errorf("segment %d: wrong content (err %v)", i, errs[i])
		}
	}
	if !errors.Is(errs[3], cloud.ErrCorrupt) || !errors.Is(errs[3], transfer.ErrSegmentUnrecoverable) || got[3] != nil {
		t.Errorf("segment 3: err = %v, want unrecoverable corruption and no bytes", errs[3])
	}
	reg := r.regs["beta"]
	// Block-level detections: segment 1's copy on c0 and segment 3's
	// four; segment 0's rotten copies were never asked for.
	if n := reg.Counter("transfer.down.corrupt_blocks").Value(); n != 5 {
		t.Errorf("transfer.down.corrupt_blocks = %d, want 5", n)
	}
	if n := reg.Counter("core.decode.sha_mismatch").Value(); n != 1 {
		t.Errorf("core.decode.sha_mismatch = %d, want 1", n)
	}
	if n := reg.Counter("core.decode.exclusion_retries").Value(); n != 1 {
		t.Errorf("core.decode.exclusion_retries = %d, want 1", n)
	}
}
