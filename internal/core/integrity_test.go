package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/meta"
)

// fileSegments returns the committed segments of a file, in order.
func fileSegments(t *testing.T, c *Client, path string) []*meta.Segment {
	t.Helper()
	img := c.Image()
	snap := img.Lookup(path).Current()
	if snap == nil {
		t.Fatalf("%s not committed", path)
	}
	var segs []*meta.Segment
	for _, id := range snap.SegmentIDs {
		seg, ok := img.Segment(id)
		if !ok {
			t.Fatalf("segment %s missing from pool", id)
		}
		segs = append(segs, seg)
	}
	return segs
}

// corruptOn marks every copy the segment keeps on the named cloud as
// rotten in the reading device's connector, returning how many.
func corruptOn(t *testing.T, r *rig, device string, c *Client, seg *meta.Segment, cloudName string, mode cloudsim.CorruptMode) int {
	t.Helper()
	idx := -1
	if _, err := fmt.Sscanf(cloudName, "c%d", &idx); err != nil {
		t.Fatalf("bad cloud name %q", cloudName)
	}
	n := 0
	for _, b := range seg.Blocks {
		if b.CloudID != cloudName {
			continue
		}
		r.flaky[device][idx].CorruptPath(c.engine.BlockPath(seg.ID, b.BlockID), mode)
		n++
	}
	if n == 0 {
		t.Fatalf("segment %s keeps nothing on %s", seg.ID, cloudName)
	}
	return n
}

// stripStamps commits the segment's metadata with the checksums of
// the given block IDs (all, when none are named) zeroed — regressing
// it to the pre-integrity format so tests can exercise the legacy and
// mixed-metadata paths against real committed state.
func stripStamps(t *testing.T, c *Client, segID string, blockIDs ...int) {
	t.Helper()
	ctx := ctxT(t)
	lock, err := c.locks.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.releaseLock(ctx, lock)
	img, err := c.store.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seg, ok := img.Segment(segID)
	if !ok {
		t.Fatalf("segment %s missing", segID)
	}
	strip := make(map[int]bool, len(blockIDs))
	for _, id := range blockIDs {
		strip[id] = true
	}
	bare := seg.Clone()
	for i := range bare.Blocks {
		if len(blockIDs) == 0 || strip[bare.Blocks[i].BlockID] {
			bare.Blocks[i].Checksum = 0
		}
	}
	if _, err := c.store.Commit(ctx, []*meta.Change{{
		Type: meta.ChangeRelocate, Path: segID, Segments: []*meta.Segment{bare},
	}}); err != nil {
		t.Fatal(err)
	}
	c.setLast(c.store.CachedShared().Clone())
}

// reshapeSegment commits a deterministic placement for one segment —
// its four smallest block IDs one per cloud c0..c3, the next two both
// on c4 — re-uploading the copies accordingly. The natural upload
// plan over-provisions blocks unevenly across clouds, which makes
// "corrupt everything cloud X holds" convict a run-dependent number
// of copies; the decision-table tests need the exact same fault
// surface every run. Old copies stay behind as unreferenced files.
func reshapeSegment(t *testing.T, c *Client, seg *meta.Segment) *meta.Segment {
	t.Helper()
	ctx := ctxT(t)
	firstLoc := make(map[int]meta.BlockLocation)
	var order []int
	for _, b := range seg.Blocks {
		if _, ok := firstLoc[b.BlockID]; !ok {
			firstLoc[b.BlockID] = b
			order = append(order, b.BlockID)
		}
	}
	sort.Ints(order)
	targets := []string{"c0", "c1", "c2", "c3", "c4", "c4"}
	if len(order) < len(targets) {
		t.Fatalf("segment %s has only %d distinct blocks, need %d", seg.ID, len(order), len(targets))
	}
	shaped := seg.Clone()
	shaped.Blocks = nil
	for i, cloudName := range targets {
		blockID := order[i]
		src := firstLoc[blockID]
		data, err := c.engine.FetchBlock(ctx, src.CloudID, seg.ID, blockID)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.engine.PutBlock(ctx, cloudName, seg.ID, blockID, data); err != nil {
			t.Fatal(err)
		}
		shaped.Blocks = append(shaped.Blocks, meta.BlockLocation{
			BlockID: blockID, CloudID: cloudName, Checksum: meta.BlockSum(data),
		})
	}
	lock, err := c.locks.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.releaseLock(ctx, lock)
	if _, err := c.store.Commit(ctx, []*meta.Change{{
		Type: meta.ChangeRelocate, Path: seg.ID, Segments: []*meta.Segment{shaped},
	}}); err != nil {
		t.Fatal(err)
	}
	c.setLast(c.store.CachedShared().Clone())
	return shaped
}

// slowTail injects heavy latency on c3 and c4 for the named device.
// All of the device's traffic doubles as a bandwidth probe, so this
// pins the throughput ranking orders of magnitude apart: the first
// download dispatch provably lands on c0..c2 and falls back to the
// slow tail only after those sources are spent. Without it the
// in-memory stores' nanosecond-noise timings decide which copies a
// plan touches first, and fault-shape tests can't assert exact
// detection counts.
func slowTail(r *rig, device string) {
	for _, i := range []int{3, 4} {
		r.flaky[device][i].SetLatency(5*time.Millisecond, 0)
	}
}

// TestCorruptionDecisionTable pins the exact outcome per fault shape:
// a rotten copy within the redundancy budget is survived
// transparently with the detection counted, while damage beyond it
// fails loudly with cloud.ErrCorrupt — silently wrong bytes are never
// an outcome.
func TestCorruptionDecisionTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode cloudsim.CorruptMode
	}{
		{"bitflip", cloudsim.CorruptBitFlip},
		{"truncate", cloudsim.CorruptTruncate},
		{"stale", cloudsim.CorruptStale},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(5)
			a, fa := r.device(t, "alpha")
			content := randContent(100+int64(len(tc.name)), 3000)
			writeFile(t, fa, "f.bin", content)
			syncOK(t, a)
			seg := reshapeSegment(t, a, fileSegments(t, a, "f.bin")[0])

			// Rot the copies on c0 and c1 for the reading device; the
			// slow tail guarantees beta's plan touches both before
			// falling back to the healthy holders.
			b, fb := r.device(t, "beta")
			slowTail(r, "beta")
			faults := corruptOn(t, r, "beta", a, seg, "c0", tc.mode) +
				corruptOn(t, r, "beta", a, seg, "c1", tc.mode)
			syncOK(t, b)

			got, err := fb.ReadFile("f.bin")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte(content)) {
				t.Fatal("corrupt copies leaked into the reconstructed file")
			}
			if n := r.regs["beta"].Counter("transfer.down.corrupt_blocks").Value(); n != int64(faults) {
				t.Fatalf("transfer.down.corrupt_blocks = %d, want %d", n, faults)
			}
			// Detection happened at download time; the decoded bytes
			// never needed the last-line defense.
			if n := r.regs["beta"].Counter("core.decode.sha_mismatch").Value(); n != 0 {
				t.Fatalf("core.decode.sha_mismatch = %d, want 0", n)
			}
		})
	}
}

func TestCorruptionBeyondRedundancyFailsLoud(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "f.bin", randContent(200, 3000))
	syncOK(t, a)
	seg := reshapeSegment(t, a, fileSegments(t, a, "f.bin")[0])

	// Rot every copy on c0..c3: only c4's two blocks stay healthy,
	// fewer than K=3 — no verified reconstruction can exist.
	b, fb := r.device(t, "beta")
	for _, cl := range []string{"c0", "c1", "c2", "c3"} {
		corruptOn(t, r, "beta", a, seg, cl, cloudsim.CorruptBitFlip)
	}
	_, err := b.SyncOnce(ctxT(t))
	if err == nil {
		t.Fatal("sync returned nil with the segment corrupted beyond K")
	}
	if !errors.Is(err, cloud.ErrCorrupt) {
		t.Fatalf("sync error = %v, want cloud.ErrCorrupt classification", err)
	}
	if _, err := fb.ReadFile("f.bin"); err == nil {
		t.Fatal("unverifiable file was written to the folder")
	}
}

// TestLegacyMetadataExclusionRecovery regresses a committed segment
// to pre-checksum metadata and rots the first-fetched copies: the
// engine cannot convict them (no stamps), so the decode-time SHA
// check must catch the poison and the exclusion retry must rebuild
// from untouched blocks.
func TestLegacyMetadataExclusionRecovery(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	content := randContent(300, 3000)
	writeFile(t, fa, "f.bin", content)
	syncOK(t, a)
	seg := reshapeSegment(t, a, fileSegments(t, a, "f.bin")[0])
	stripStamps(t, a, seg.ID)

	b, fb := r.device(t, "beta")
	slowTail(r, "beta")
	for _, cl := range []string{"c0", "c1", "c2"} {
		corruptOn(t, r, "beta", a, seg, cl, cloudsim.CorruptBitFlip)
	}
	syncOK(t, b)

	got, err := fb.ReadFile("f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("exclusion retry produced wrong bytes")
	}
	reg := r.regs["beta"]
	if n := reg.Counter("transfer.down.corrupt_blocks").Value(); n != 0 {
		t.Fatalf("unstamped copies were convicted at download time (%d)", n)
	}
	if n := reg.Counter("core.decode.sha_mismatch").Value(); n != 1 {
		t.Fatalf("core.decode.sha_mismatch = %d, want 1", n)
	}
	if n := reg.Counter("core.decode.exclusion_retries").Value(); n != 1 {
		t.Fatalf("core.decode.exclusion_retries = %d, want 1", n)
	}
}

func TestLegacyMetadataCorruptBeyondExclusionFailsLoud(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "f.bin", randContent(400, 3000))
	syncOK(t, a)
	seg := reshapeSegment(t, a, fileSegments(t, a, "f.bin")[0])
	stripStamps(t, a, seg.ID)

	b, fb := r.device(t, "beta")
	for _, cl := range []string{"c0", "c1", "c2", "c3"} {
		corruptOn(t, r, "beta", a, seg, cl, cloudsim.CorruptBitFlip)
	}
	_, err := b.SyncOnce(ctxT(t))
	if err == nil {
		t.Fatal("sync returned nil with legacy metadata corrupted beyond exclusion")
	}
	if !errors.Is(err, cloud.ErrCorrupt) {
		t.Fatalf("sync error = %v, want cloud.ErrCorrupt", err)
	}
	if _, err := fb.ReadFile("f.bin"); err == nil {
		t.Fatal("unverifiable file was written to the folder")
	}
}

// TestMixedMetadataExclusionRecovery leaves the sibling stamps in
// place but strips the rotten block's own: no stamp convicts it
// individually, so the whole fetched set is excluded and the retry
// must land on untouched blocks.
func TestMixedMetadataExclusionRecovery(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	content := randContent(500, 3000)
	writeFile(t, fa, "f.bin", content)
	syncOK(t, a)
	seg := reshapeSegment(t, a, fileSegments(t, a, "f.bin")[0])
	// Only the block on c0 — the rotten one — regresses to unstamped.
	stripStamps(t, a, seg.ID, seg.Blocks[0].BlockID)

	b, fb := r.device(t, "beta")
	slowTail(r, "beta")
	corruptOn(t, r, "beta", a, seg, "c0", cloudsim.CorruptStale)
	syncOK(t, b)

	got, err := fb.ReadFile("f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("mixed-metadata retry produced wrong bytes")
	}
	if n := r.regs["beta"].Counter("core.decode.exclusion_retries").Value(); n != 1 {
		t.Fatalf("core.decode.exclusion_retries = %d, want 1", n)
	}
}

// TestDecodeExclusionTargetsStampedPoison drives the decode-time
// defense directly with a block poisoned after download verification
// (the exact gap the defense exists for): the per-block checksum must
// single out the poisoned copy so the retry keeps the healthy
// fetches' block budget.
func TestDecodeExclusionTargetsStampedPoison(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	content := randContent(600, 3000)
	writeFile(t, fa, "f.bin", content)
	syncOK(t, a)
	seg := fileSegments(t, a, "f.bin")[0]
	// The chunker may split the file; the expected plaintext is this
	// segment's own chunk, not necessarily the whole file.
	var plain []byte
	for _, ch := range a.chnk.Split([]byte(content)) {
		if ch.ID() == seg.ID {
			plain = ch.Data
		}
	}
	if plain == nil {
		t.Fatalf("segment %s not reproduced by the chunker", seg.ID)
	}

	ctx := ctxT(t)
	item, err := downloadItem(seg, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := a.engine.DownloadSegment(ctx, item.Plan, seg.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Poison one fetched block in memory, past the engine's checks.
	var poisoned int
	for id := range blocks {
		poisoned = id
		break
	}
	blocks[poisoned][0] ^= 0xFF
	// The two halves of fetchVerified's decode-time defense, driven by
	// hand because the poison goes in between the fetch and the decode.
	_, excluded, err := a.decodeAndVerify(seg, blocks)
	if !errors.Is(err, errDecodeMismatch) {
		t.Fatalf("decoding a poisoned block set: %v, want errDecodeMismatch", err)
	}
	if len(excluded) != 1 || !excluded[poisoned] {
		t.Fatalf("excluded = %v, want only the poisoned block %d", excluded, poisoned)
	}
	data, err := a.refetch(ctx, seg, excluded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, plain) {
		t.Fatal("the replacement fetch returned wrong bytes")
	}
	reg := r.regs["alpha"]
	if n := reg.Counter("core.decode.sha_mismatch").Value(); n != 1 {
		t.Fatalf("core.decode.sha_mismatch = %d, want 1", n)
	}
	if n := reg.Counter("core.decode.exclusion_retries").Value(); n != 1 {
		t.Fatalf("core.decode.exclusion_retries = %d, want 1", n)
	}
}

// TestClientScrubRepairsSharedClouds drives Client.Scrub end to end:
// at-rest damage on the scrubbing device's connectors is found,
// repaired, committed under the quorum lock, and a fresh device then
// syncs byte-identical content with zero detections.
func TestClientScrubRepairsSharedClouds(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	content := randContent(700, 9000)
	writeFile(t, fa, "docs/big.bin", content)
	syncOK(t, a)

	segs := fileSegments(t, a, "docs/big.bin")
	ctx := ctxT(t)
	// Rot one copy of the first segment, hard-delete one copy of the
	// last segment from its backing store.
	first, last := segs[0], segs[len(segs)-1]
	corruptOn(t, r, "alpha", a, first, first.Blocks[0].CloudID, cloudsim.CorruptBitFlip)
	victim := last.Blocks[len(last.Blocks)-1]
	var vIdx int
	fmt.Sscanf(victim.CloudID, "c%d", &vIdx)
	if err := cloudsim.NewDirect(r.stores[vIdx]).Delete(ctx, a.engine.BlockPath(last.ID, victim.BlockID)); err != nil {
		t.Fatal(err)
	}

	rep, err := a.Scrub(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	wantCorrupt := 0
	for _, b := range first.Blocks {
		if b.CloudID == first.Blocks[0].CloudID {
			wantCorrupt++
		}
	}
	if rep.BlocksCorrupt != wantCorrupt || rep.BlocksMissing != 1 {
		t.Fatalf("corrupt/missing = %d/%d, want %d/1", rep.BlocksCorrupt, rep.BlocksMissing, wantCorrupt)
	}
	if rep.RepairedBlocks != wantCorrupt+1 || !rep.Committed {
		t.Fatalf("repair incomplete: %+v", rep)
	}
	if len(rep.Unrepairable) != 0 || len(rep.UnknownClouds) != 0 {
		t.Fatalf("unexpected report extras: %+v", rep)
	}

	// Second cycle over the repaired store: nothing to do.
	rep2, err := a.Scrub(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BlocksCorrupt+rep2.BlocksMissing+rep2.RepairedBlocks+rep2.Backfilled != 0 {
		t.Fatalf("store not clean after repair: %+v", rep2)
	}

	// A fresh device now syncs clean bytes with zero detections.
	b, fb := r.device(t, "beta")
	syncOK(t, b)
	got, err := fb.ReadFile("docs/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("post-repair content differs")
	}
	if n := r.regs["beta"].Counter("transfer.down.corrupt_blocks").Value(); n != 0 {
		t.Fatalf("beta still hit %d corrupt copies after repair", n)
	}
}

// TestChaosCorruptionScrubSoak is the corruption endurance run: every
// fault mode plus hard deletions are seeded on two clouds (within the
// n-k budget), a fresh device must sync byte-identical content, the
// scrubber must restore full redundancy, and every corrupt serve the
// simulator recorded must reconcile exactly against the sync- and
// scrub-side detection counters.
func TestChaosCorruptionScrubSoak(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	files := map[string]string{
		"a.bin":      randContent(801, 9000),
		"b/deep.bin": randContent(802, 14000),
		"c.bin":      randContent(803, 5000),
	}
	for path, content := range files {
		writeFile(t, fa, path, content)
	}
	syncOK(t, a)

	// The faulted device: shares the stores, owns its connectors.
	s, fs := r.device(t, "scrubby")
	ctx := ctxT(t)
	img := a.Image()
	var segIDs []string
	for id := range img.AllSegments() {
		segIDs = append(segIDs, id)
	}
	sort.Strings(segIDs)

	modes := []cloudsim.CorruptMode{cloudsim.CorruptBitFlip, cloudsim.CorruptTruncate, cloudsim.CorruptStale}
	corruptMarks, deleted := 0, 0
	totalCopies := 0
	for i, id := range segIDs {
		seg, _ := img.Segment(id)
		totalCopies += len(seg.Blocks)
		// Budget: keep at least K distinct blocks outside c3/c4 (the
		// fault domain) so every segment stays recoverable.
		healthy := map[int]bool{}
		for _, b := range seg.Blocks {
			if b.CloudID != "c3" && b.CloudID != "c4" {
				healthy[b.BlockID] = true
			}
		}
		if len(healthy) < seg.K {
			t.Fatalf("segment %s keeps only %d blocks outside the fault domain", id, len(healthy))
		}
		for _, b := range seg.Blocks {
			switch b.CloudID {
			case "c3":
				r.flaky["scrubby"][3].CorruptPath(a.engine.BlockPath(id, b.BlockID), modes[i%len(modes)])
				corruptMarks++
			case "c4":
				if deleted <= corruptMarks/2 { // mix of fault shapes, still within budget
					if err := cloudsim.NewDirect(r.stores[4]).Delete(ctx, a.engine.BlockPath(id, b.BlockID)); err != nil {
						t.Fatal(err)
					}
					deleted++
				}
			}
		}
	}
	if corruptMarks == 0 || deleted == 0 {
		t.Fatalf("fault seeding degenerate: %d corrupt, %d deleted", corruptMarks, deleted)
	}

	// 1. Sync through the faults: byte-identical or loud, never wrong.
	syncOK(t, s)
	for path, content := range files {
		got, err := fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte(content)) {
			t.Fatalf("%s: corrupt bytes reached the folder", path)
		}
	}

	// 2. Scrub repairs everything the faults touched.
	rep, err := s.Scrub(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksMissing != deleted {
		t.Fatalf("BlocksMissing = %d, want %d", rep.BlocksMissing, deleted)
	}
	if rep.BlocksCorrupt != corruptMarks {
		t.Fatalf("BlocksCorrupt = %d, want %d", rep.BlocksCorrupt, corruptMarks)
	}
	if rep.RepairedBlocks != corruptMarks+deleted || !rep.Committed {
		t.Fatalf("RepairedBlocks = %d (committed %v), want %d", rep.RepairedBlocks, rep.Committed, corruptMarks+deleted)
	}
	if len(rep.Unrepairable) != 0 {
		t.Fatalf("Unrepairable = %v", rep.Unrepairable)
	}

	// 3. Full (n, k) redundancy is back: a second cycle verifies every
	// copy and the simulator holds no remaining damage marks.
	rep2, err := s.Scrub(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BlocksCorrupt+rep2.BlocksMissing+rep2.RepairedBlocks != 0 {
		t.Fatalf("damage survived repair: %+v", rep2)
	}
	if rep2.BlocksVerified != totalCopies {
		t.Fatalf("BlocksVerified = %d, want %d (full redundancy)", rep2.BlocksVerified, totalCopies)
	}
	for _, fl := range r.flaky["scrubby"] {
		if paths := fl.CorruptedPaths(); len(paths) != 0 {
			t.Fatalf("corruption marks survived repair: %v", paths)
		}
	}

	// 4. Exact reconciliation: every corrupt serve the simulator
	// recorded was detected either by a sync download (stamped
	// checksum at the engine) or by the scrubber — none slipped by.
	serves := int64(0)
	for _, fl := range r.flaky["scrubby"] {
		serves += int64(fl.CorruptServes())
	}
	reg := r.regs["scrubby"]
	detected := reg.Counter("transfer.down.corrupt_blocks").Value() +
		reg.Counter("scrub.blocks_corrupt").Value()
	if serves != detected {
		t.Fatalf("reconciliation: %d corrupt serves vs %d detections (sync %d + scrub %d)",
			serves, detected,
			reg.Counter("transfer.down.corrupt_blocks").Value(),
			reg.Counter("scrub.blocks_corrupt").Value())
	}
	if got := reg.Counter("scrub.repaired_blocks").Value(); got != int64(corruptMarks+deleted) {
		t.Fatalf("scrub.repaired_blocks = %d, want %d", got, corruptMarks+deleted)
	}

	// 5. An untouched device sees the repaired store clean.
	b, fb := r.device(t, "gamma")
	syncOK(t, b)
	for path, content := range files {
		got, err := fb.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte(content)) {
			t.Fatalf("%s: post-repair content differs", path)
		}
	}
}
