package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/chunker"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
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

// reshapeSegment commits a deterministic placement for one segment —
// its four smallest block IDs one per cloud c0..c3, the next two both
// on c4 — re-uploading the copies accordingly. The natural upload
// plan over-provisions blocks unevenly across clouds, which makes
// "corrupt everything cloud X holds" convict a run-dependent number
// of copies; the decision-table tests need the exact same fault
// surface every run. Old copies stay behind as unreferenced files. It
// starts from the segment's full placement, recorded first.
func reshapeSegment(t *testing.T, c *Client, seg *meta.Segment) *meta.Segment {
	t.Helper()
	ctx := ctxT(t)
	recordPlacements(t, c)
	seg, ok := c.Image().Segment(seg.ID)
	if !ok {
		t.Fatal("the segment is not committed")
	}
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
	commitPlacement(t, c, shaped)
	return shaped
}

// commitPlacement commits seg's record as its placement under the
// quorum lock, unless the committed record places it so already.
func commitPlacement(t *testing.T, c *Client, seg *meta.Segment) {
	t.Helper()
	cur, ok := c.store.CachedShared().Segment(seg.ID)
	if !ok {
		t.Fatalf("segment %s is not committed", seg.ID)
	}
	place := meta.PlaceChange(cur, seg)
	if place == nil {
		return
	}
	t.Helper()
	ctx := ctxT(t)
	lock, err := c.locks.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.store.JoinWrites()
		_ = lock.Release(ctx)
	}()
	if _, err := c.store.Commit(ctx, []*meta.Change{place}); err != nil {
		t.Fatal(err)
	}
	c.setLast(c.store.CachedShared().Clone())
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
	recordPlacements(t, a)
	seg := fileSegments(t, a, "f.bin")[0]
	// The chunker may split the file; the expected plaintext is this
	// segment's own chunk, not necessarily the whole file.
	var plain []byte
	for _, ch := range a.chnk.Split([]byte(content)) {
		if chunker.SegmentID(ch.Data) == seg.ID {
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
	res, err := a.engine.DownloadBatch(ctx, []transfer.DownloadItem{item})
	if err != nil || !item.Plan.Done() {
		t.Fatal(err, item.Plan.Done())
	}
	blocks := res[0]
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

// crcNull is the CRC-32C generator polynomial x^32 + 0x1EDC6F41 laid
// out in the checksum's reflected bit order: XORed into a block at any
// offset, it changes the bytes and leaves meta.BlockSum as it was.
var crcNull = []byte{0xf1, 0x76, 0xec, 0x05, 0x01}

// poisonFirst serves the first download of one segment's blocks
// poisoned past what its stamp can see (crcNull): the copy passes the
// download checksum, and only the content SHA-1 after decoding can
// catch it. Every later download is clean.
type poisonFirst struct {
	cloud.Interface
	prefix string // the segment's block paths
	fired  *atomic.Bool
}

func (p poisonFirst) Download(ctx context.Context, path string) ([]byte, error) {
	data, err := p.Interface.Download(ctx, path)
	if err != nil || !strings.HasPrefix(path, p.prefix) || !p.fired.CompareAndSwap(false, true) {
		return data, err
	}
	data = bytes.Clone(data)
	for i, x := range crcNull {
		data[i] ^= x
	}
	return data, nil
}

// The decode workers of fetchVerified, over a multi-segment batch with
// one segment whose first fetched block set is poisoned past its
// stamps (TestDecodeExclusionTargetsStampedPoison's gap, reached
// through the network): every segment is delivered exactly once, with
// its own bytes, no two deliveries overlap, and the poisoned segment
// is refetched from blocks outside the failed set.
func TestDecodeWorkersDeliverEachSegmentOnce(t *testing.T) {
	r := newRig(5)
	// K=2 of five clouds: the fair share alone places five blocks of
	// every segment, more than 2K, so the refetch finds K blocks beyond
	// the failed set whichever over-provisioned extras won their races.
	var direct []cloud.Interface
	for _, st := range r.stores {
		direct = append(direct, cloudsim.NewDirect(st))
	}
	fa := localfs.NewMem()
	a, err := New(direct, fa, Config{Device: "alpha", Passphrase: "shared-secret", Theta: 4096, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	content := randContent(601, 30_000)
	writeFile(t, fa, "f.bin", content)
	syncOK(t, a)
	settle(t, a) // the commit's batch ends in its hold's tail
	syncOK(t, a) // records the placements the commit's tail owes
	segs := fileSegments(t, a, "f.bin")
	if len(segs) < 4 {
		t.Fatalf("f.bin cut into %d segments, want several", len(segs))
	}
	plain := make(map[string][]byte)
	for _, ch := range a.chnk.Split([]byte(content)) {
		plain[chunker.SegmentID(ch.Data)] = ch.Data
	}
	poisoned := segs[len(segs)/2]
	if len(poisoned.Blocks) < 2*poisoned.K {
		t.Fatalf("segment %s has %d blocks; the refetch needs K=%d beyond the failed set", poisoned.ID, len(poisoned.Blocks), poisoned.K)
	}
	// The poison's premise: the stamp cannot see it.
	probe := randContent(602, 100)
	sum := meta.BlockSum([]byte(probe))
	poked := []byte(probe)
	for i, x := range crcNull {
		poked[40+i] ^= x
	}
	if meta.BlockSum(poked) != sum {
		t.Fatal("crcNull changes the block checksum")
	}

	var fired atomic.Bool
	clouds := make([]cloud.Interface, len(r.stores))
	for i, st := range r.stores {
		clouds[i] = poisonFirst{cloudsim.NewDirect(st), transfer.DefaultBlockDir + "/" + poisoned.ID + ".", &fired}
	}
	reg := obs.NewRegistry()
	b, err := New(clouds, localfs.NewMem(), Config{Device: "beta", Passphrase: "shared-secret", Theta: 4096, K: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var inside atomic.Int32
	calls := make([]int, len(segs))
	got := make([][]byte, len(segs))
	err = b.fetchVerified(ctxT(t), segs, func(i int, data []byte, err error) {
		if inside.Add(1) != 1 {
			t.Error("deliver entered while another delivery was running")
		}
		defer inside.Add(-1)
		runtime.Gosched() // widen the window a concurrent delivery would need
		if err != nil {
			t.Errorf("segment %d: %v", i, err)
		}
		calls[i]++
		got[i] = data
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("no block of the poisoned segment was downloaded")
	}
	for i, seg := range segs {
		if calls[i] != 1 {
			t.Errorf("segment %d delivered %d times, want once", i, calls[i])
		}
		if !bytes.Equal(got[i], plain[seg.ID]) {
			t.Errorf("segment %d delivered wrong bytes", i)
		}
	}
	if n := reg.Counter("core.decode.sha_mismatch").Value(); n != 1 {
		t.Errorf("core.decode.sha_mismatch = %d, want 1", n)
	}
	if n := reg.Counter("core.decode.exclusion_retries").Value(); n != 1 {
		t.Errorf("core.decode.exclusion_retries = %d, want 1: the poisoned segment is refetched", n)
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
	if rep2.BlocksCorrupt+rep2.BlocksMissing+rep2.RepairedBlocks != 0 {
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
	settle(t, a) // the commit's batch ends in its hold's tail
	syncOK(t, a) // records the placements the commit's tail owes

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

// A scrub's commit names only the blocks its cycle wrote. Alpha's
// scrub reads the image and pauses at its first block read. Meanwhile
// a copy is lost on a cloud beta cannot write to, and beta's scrub
// repairs it onto another cloud. Alpha's cycle then repairs a copy of
// its own and commits: beta's repair must stand, or the record would
// name the lost copy again and leave beta's unreferenced.
func TestScrubCommitKeepsAnotherDevicesRepair(t *testing.T) {
	r := newRig(5)
	tp := newTap("")
	a, fa, _ := r.tappedDevice(t, "alpha", tp)
	writeFile(t, fa, "doc.bin", randContent(31, 4000))
	syncOK(t, a)

	b, _ := r.device(t, "beta")
	syncOK(t, b)
	// Back to the normal placement, so every cloud has room for a
	// repair whatever the pass over-provisioned.
	if _, err := b.TrimOverProvisioned(ctxT(t)); err != nil {
		t.Fatal(err)
	}

	syncOK(t, a)
	seg := fileSegments(t, a, "doc.bin")[0]
	loc := func(blockID int) meta.BlockLocation {
		i := slices.IndexFunc(seg.Blocks, func(l meta.BlockLocation) bool { return l.BlockID == blockID })
		if i < 0 {
			t.Fatalf("segment %s names no block %d: %+v", seg.ID, blockID, seg.Blocks)
		}
		return seg.Blocks[i]
	}
	store := func(name string) int {
		return slices.IndexFunc(r.stores, func(st *cloudsim.Store) bool { return st.Name() == name })
	}
	lose := func(l meta.BlockLocation) {
		if err := cloudsim.NewDirect(r.stores[store(l.CloudID)]).Delete(ctxT(t), a.engine.BlockPath(seg.ID, l.BlockID)); err != nil {
			t.Fatal(err)
		}
	}
	own, moved := loc(0), loc(1)
	if own.CloudID == moved.CloudID {
		t.Fatalf("blocks 0 and 1 share %s: the test needs two clouds", own.CloudID)
	}
	lose(own) // both cycles repair block 0 in place

	tp.blockReads.hold()
	done := make(chan error, 1)
	go func() {
		rep, err := a.Scrub(ctxT(t), true)
		if err == nil && !rep.Committed {
			err = fmt.Errorf("alpha's scrub committed no repair: %+v", rep)
		}
		done <- err
	}()
	await(t, tp.blockAsked, 1, "alpha's scrub to read a block")

	lose(moved)
	r.flaky["beta"][store(moved.CloudID)].SetQuotaFull(true)
	if rep, err := b.Scrub(ctxT(t), true); err != nil || !rep.Committed {
		t.Fatalf("beta's scrub: %+v, %v", rep, err)
	}
	syncOK(t, b)
	repaired, _ := b.Image().Segment(seg.ID)
	if repaired.HasBlock(moved.BlockID, moved.CloudID) || !slices.ContainsFunc(repaired.Blocks,
		func(l meta.BlockLocation) bool { return l.BlockID == moved.BlockID }) {
		t.Fatalf("beta did not move block %d off %s: %+v", moved.BlockID, moved.CloudID, repaired.Blocks)
	}

	tp.blockReads.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	syncOK(t, a)
	settle(t, a) // the hold's deletes run in its tail
	img := a.Image()
	cur, _ := img.Segment(seg.ID)
	for _, l := range repaired.Blocks {
		if l.BlockID == moved.BlockID && !cur.HasBlock(l.BlockID, l.CloudID) {
			t.Errorf("alpha's commit undid beta's repair of block %d onto %s: %+v", l.BlockID, l.CloudID, cur.Blocks)
		}
	}
	auditNamed(t, r, img)
	auditBlocks(t, r, img)
}
