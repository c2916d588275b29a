package core

import (
	"bytes"
	"errors"
	"fmt"
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
			plain[chunker.SegmentID(ch.Data)] = ch.Data
		}
		segs = append(segs, fileSegments(t, a, path)[0])
	}

	// Fix the placements of the three that go over the network (one block
	// each on c0..c3, two on c4) so the fault surface is exact, and
	// poison the third's copy on c0 under a matching stamp.
	for i := 1; i < 4; i++ {
		segs[i] = reshapeSegment(t, a, segs[i])
	}
	poisonCopy(t, a, segs[2], "c0")

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
	// 2: its copy on c0, poisoned above, passes its stamp; only the
	// decode can tell.
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

// poisonCopy overwrites the segment's copy on cloudName with wrong
// bytes of the same length and commits their checksum as the copy's
// stamp: a stamp recorded over the wrong bytes, which download
// verification passes and only the decode-time SHA-1 check catches.
func poisonCopy(t *testing.T, c *Client, seg *meta.Segment, cloudName string) {
	t.Helper()
	ctx := ctxT(t)
	poisoned := seg.Clone()
	for i, b := range poisoned.Blocks {
		if b.CloudID != cloudName {
			continue
		}
		data, err := c.engine.FetchBlock(ctx, cloudName, seg.ID, b.BlockID)
		if err != nil {
			t.Fatal(err)
		}
		for j := range data {
			data[j] ^= 0x5a
		}
		if err := c.engine.PutBlock(ctx, cloudName, seg.ID, b.BlockID, data); err != nil {
			t.Fatal(err)
		}
		poisoned.Blocks[i].Checksum = meta.BlockSum(data)
	}
	commitPlacement(t, c, poisoned)
}

// recordedDeviceOn is rig.device with every request of the device also
// counted, per cloud, by a Recorder.
func (r *rig) recordedDeviceOn(t *testing.T, name string) (*Client, *localfs.Mem, []*cloudsim.Recorder) {
	t.Helper()
	folder := localfs.NewMem()
	var clouds []cloud.Interface
	var recs []*cloudsim.Recorder
	r.flaky[name] = nil
	for i, st := range r.stores {
		f := cloudsim.NewFlaky(cloudsim.NewDirect(st), 0, int64(len(name)*10+i))
		rec := cloudsim.NewRecorder(f)
		r.flaky[name] = append(r.flaky[name], f)
		recs, clouds = append(recs, rec), append(clouds, rec)
	}
	r.regs[name] = obs.NewRegistry()
	c, err := New(clouds, folder, Config{
		Device: name, Passphrase: "shared-secret", Theta: 4096,
		LockExpiry: 500 * time.Millisecond, Obs: r.regs[name],
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, folder, recs
}

// The stamp poll decides on the three fastest answers, so on a fresh
// device the slow clouds have no estimate yet when the first block is
// fetched — and the prober puts a cloud it never observed first. The
// fetch waits for the poll's last answers then, and the first blocks
// come from c0..c2; a warm device never waits.
func TestFreshDeviceFetchWaitsOutThePoll(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	content := randContent(950, 3000)
	writeFile(t, fa, "f.bin", content)
	syncOK(t, a)
	reshapeSegment(t, a, fileSegments(t, a, "f.bin")[0]) // one block on each of c0..c3, two on c4

	b, fb, recs := r.recordedDeviceOn(t, "beta")
	slowTail(r, "beta")
	syncOK(t, b)
	if got, err := fb.ReadFile("f.bin"); err != nil || string(got) != content {
		t.Fatalf("fresh device read f.bin: %v", err)
	}
	for i, rec := range recs {
		n := rec.CountsUnder(transfer.DefaultBlockDir).Download
		if want := 1; i < 3 && n != want || i >= 3 && n != 0 {
			t.Errorf("c%d served %d blocks; want one from each of c0..c2 and none from the slow tail", i, n)
		}
	}
	joined := r.regs["beta"].Counter("deltasync.poll.joined")
	if n := joined.Value(); n != 1 {
		t.Errorf("deltasync.poll.joined = %d after the first fetch, want 1", n)
	}

	writeFile(t, fa, "g.bin", randContent(951, 3000))
	syncOK(t, a)
	syncOK(t, b)
	if _, err := fb.ReadFile("g.bin"); err != nil {
		t.Fatal(err)
	}
	if n := joined.Value(); n != 1 {
		t.Errorf("deltasync.poll.joined = %d after a warm fetch, want still 1", n)
	}
}
