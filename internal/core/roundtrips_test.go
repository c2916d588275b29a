package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/deltasync"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
	"unidrive/internal/qlock"
	"unidrive/internal/transfer"
)

// recordedDevice builds a client over five unshaped clouds, each behind
// a Recorder, configured as cmd/unidrive configures it.
func recordedDevice(t *testing.T) (*Client, *localfs.Mem, []*cloudsim.Recorder) {
	t.Helper()
	stores := make([]*cloudsim.Store, 5)
	for i := range stores {
		stores[i] = cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)
	}
	return recordedDeviceOn(t, "alpha", stores)
}

// recordedDeviceOn is recordedDevice for the named device over shared
// stores, each behind a Recorder of its own.
func recordedDeviceOn(t *testing.T, name string, stores []*cloudsim.Store) (*Client, *localfs.Mem, []*cloudsim.Recorder) {
	t.Helper()
	recs := make([]*cloudsim.Recorder, len(stores))
	clouds := make([]cloud.Interface, len(recs))
	for i, st := range stores {
		recs[i] = cloudsim.NewRecorder(cloudsim.NewDirect(st))
		clouds[i] = recs[i]
	}
	folder := localfs.NewMem()
	c, err := New(clouds, folder, Config{Device: name, Passphrase: "shared-secret", Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return c, folder, recs
}

// requestsUnder sums the requests below one cloud directory over all
// clouds.
func requestsUnder(recs []*cloudsim.Recorder, dir string) cloudsim.CallCounts {
	var sum cloudsim.CallCounts
	for _, rec := range recs {
		sum = sum.Plus(rec.CountsUnder(dir))
	}
	return sum
}

// The request budget of a single-file commit, the deterministic gate
// on the pass's round trips: one lock hold is an upload, a list and a
// delete on each of the three clouds that won the device's previous
// round; the version stamps are read once on every cloud and written
// once on a quorum; the delta is written once on that quorum — 20
// requests and the blocks. Request counts over unshaped clouds do not
// depend on timing, so any extra round trip fails here. Both passes
// are counted once their hold's tail — the release — is joined.
func TestSingleFileCommitRequestBudget(t *testing.T) {
	c, folder, recs := recordedDevice(t)
	writeFile(t, folder, "warm.bin", randContent(1, 100_000))
	if _, err := c.SyncDirty(ctxT(t), []string{"warm.bin"}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	c.store.JoinPoll(ctxT(t)) // the stamp poll's last answers may land after the pass returns

	versionPath := deltasync.DefaultDir + "/version"
	before := map[string]cloudsim.CallCounts{}
	dirs := []string{qlock.DefaultLockDir, deltasync.DefaultDir, versionPath, deltasync.DefaultDir + "/delta", transfer.DefaultBlockDir, ""}
	for _, d := range dirs {
		before[d] = requestsUnder(recs, d)
	}
	total := func() int {
		n := 0
		for _, rec := range recs {
			n += rec.Counts().Total()
		}
		return n
	}
	totalBefore := total()

	writeFile(t, folder, "one.bin", randContent(2, 100_000))
	rep, err := c.SyncDirty(ctxT(t), []string{"one.bin"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalChanges != 1 {
		t.Fatalf("committed %d changes, want 1", rep.LocalChanges)
	}
	settle(t, c)
	c.store.JoinPoll(ctxT(t))
	got := map[string]cloudsim.CallCounts{}
	for _, d := range dirs {
		got[d] = requestsUnder(recs, d).Minus(before[d])
	}

	if want := (cloudsim.CallCounts{Upload: 3, List: 3, Delete: 3}); got[qlock.DefaultLockDir] != want {
		t.Errorf("lock requests = %+v, want %+v", got[qlock.DefaultLockDir], want)
	}
	if want := (cloudsim.CallCounts{Download: 5, Upload: 3}); got[versionPath] != want {
		t.Errorf("version-stamp requests = %+v, want %+v", got[versionPath], want)
	}
	if want := (cloudsim.CallCounts{Upload: 3}); got[deltasync.DefaultDir+"/delta"] != want {
		t.Errorf("delta requests = %+v, want %+v", got[deltasync.DefaultDir+"/delta"], want)
	}
	if n := got[deltasync.DefaultDir].Total(); n != 11 {
		t.Errorf("%d metadata requests, want 11 (stamps and delta only): %+v", n, got[deltasync.DefaultDir])
	}
	// Blocks: the fair share at least, the whole code at most (how many
	// over-provisioned blocks go out depends on timing); nothing read,
	// nothing deleted.
	blocks := got[transfer.DefaultBlockDir]
	p := c.Params()
	if blocks.Upload < p.NormalBlocks() || blocks.Upload > p.CodeN() || blocks.Total() != blocks.Upload {
		t.Errorf("block requests = %+v, want %d..%d uploads and nothing else", blocks, p.NormalBlocks(), p.CodeN())
	}
	if n := total() - totalBefore; n != 9+11+blocks.Upload {
		t.Errorf("%d requests in the pass, want %d: something outside the three layouts", n, 20+blocks.Upload)
	}

	// A read with nothing pending: the five stamp GETs, then blocks.
	for _, d := range dirs {
		before[d] = requestsUnder(recs, d)
	}
	totalBefore = total()
	data, err := c.Get(ctxT(t), "one.bin")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != randContent(2, 100_000) {
		t.Fatal("Get returned different content")
	}
	c.store.JoinPoll(ctxT(t))
	if want, g := (cloudsim.CallCounts{Download: 5}), requestsUnder(recs, deltasync.DefaultDir).Minus(before[deltasync.DefaultDir]); g != want {
		t.Errorf("Get's metadata requests = %+v, want %+v", g, want)
	}
	blocks = requestsUnder(recs, transfer.DefaultBlockDir).Minus(before[transfer.DefaultBlockDir])
	if blocks.Download < p.K || blocks.Total() != blocks.Download {
		t.Errorf("Get's block requests = %+v, want at least %d downloads and nothing else", blocks, p.K)
	}
	if n := total() - totalBefore; n != 5+blocks.Download {
		t.Errorf("Get issued %d requests, want %d", n, 5+blocks.Download)
	}
}

// The request budget of the maintenance entries on a warm device with
// nothing pending: each reads the committed image through the delta
// cursor — the five stamp GETs, not the whole base from every cloud —
// and takes one survey, one List of the block directory per cloud.
func TestMaintenanceRequestBudget(t *testing.T) {
	c, folder, recs := recordedDevice(t)
	writeFile(t, folder, "warm.bin", randContent(1, 100_000))
	if _, err := c.SyncDirty(ctxT(t), []string{"warm.bin"}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	c.store.JoinPoll(ctxT(t)) // the stamp poll's last answers may land after the pass returns
	// during runs one maintenance entry and returns the requests it
	// issued under the metadata and the block directory.
	during := func(run func() error) (metadata, blocks cloudsim.CallCounts) {
		t.Helper()
		m, b := requestsUnder(recs, deltasync.DefaultDir), requestsUnder(recs, transfer.DefaultBlockDir)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		c.store.JoinPoll(ctxT(t)) // the stamp poll's last answers may land after the entry returns
		return requestsUnder(recs, deltasync.DefaultDir).Minus(m), requestsUnder(recs, transfer.DefaultBlockDir).Minus(b)
	}
	stampGETs := cloudsim.CallCounts{Download: 5}

	for _, entry := range []struct {
		name string
		run  func() error
	}{
		{"Scrub(false)", func() error { _, err := c.Scrub(ctxT(t), false); return err }},
		{"Scrub(true)", func() error { _, err := c.Scrub(ctxT(t), true); return err }},
	} {
		metadata, blocks := during(entry.run)
		if metadata != stampGETs {
			t.Errorf("%s: metadata requests = %+v, want %+v", entry.name, metadata, stampGETs)
		}
		if blocks.List != 5 || blocks.Upload+blocks.Delete != 0 {
			t.Errorf("%s: block-directory requests = %+v, want 5 lists and no writes", entry.name, blocks)
		}
	}

	// A trim commits, so it also writes; what it READS is the stamps.
	metadata, blocks := during(func() error { _, err := c.TrimOverProvisioned(ctxT(t)); return err })
	if metadata.Download != 5 || metadata.List != 0 {
		t.Errorf("TrimOverProvisioned: metadata requests = %+v, want 5 downloads and no lists", metadata)
	}
	if blocks.List != 0 {
		t.Errorf("TrimOverProvisioned listed the block directory %d times; it judges the image alone", blocks.List)
	}

	// Recovery takes one survey for the whole journal, not one per
	// intent.
	segID := c.Image().SegmentIDs()[0]
	for _, id := range []string{"scrub:alpha", "scrub:beta"} {
		err := c.journal.Begin(&journal.Intent{
			ID: id, Kind: journal.KindRepair, State: journal.StateUploading,
			Placements: map[string]map[int]string{segID: {0: "c0"}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var rep RecoveryReport
	metadata, blocks = during(func() (err error) { rep, err = c.Recover(ctxT(t)); return err })
	if rep.IntentsReplayed != 2 {
		t.Fatalf("recovery replayed %d intents, want 2", rep.IntentsReplayed)
	}
	if metadata != stampGETs {
		t.Errorf("Recover: metadata requests = %+v, want %+v", metadata, stampGETs)
	}
	if want := (cloudsim.CallCounts{List: 5}); blocks != want {
		t.Errorf("Recover: block-directory requests = %+v, want %+v", blocks, want)
	}
}

// The request budget of block deletes: the device whose commit
// releases segments — an overwrite and a delete — deletes each of their
// blocks exactly once, after its commit, and a device that applies the
// commit deletes none.
func TestApplyingDeviceDeletesNoBlocks(t *testing.T) {
	stores := make([]*cloudsim.Store, 5)
	for i := range stores {
		stores[i] = cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)
	}
	a, fa, recsA := recordedDeviceOn(t, "alpha", stores)
	b, _, recsB := recordedDeviceOn(t, "beta", stores)
	writeFile(t, fa, "edit.bin", randContent(1, 100_000))
	writeFile(t, fa, "gone.bin", randContent(2, 100_000))
	if _, err := a.SyncOnce(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	// The commit's batch ends in its hold's tail, and the poll records the
	// placements it owes.
	settle(t, a)
	if _, err := a.SyncRemote(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	settle(t, a)
	if rep, err := b.SyncOnce(ctxT(t)); err != nil || rep.CloudChanges != 2 {
		t.Fatalf("beta's first pass: %+v, %v; want 2 files applied", rep, err)
	}
	img := a.Image()
	released := make(map[string]bool) // cloud/path of every block the next commit releases
	for _, path := range []string{"edit.bin", "gone.bin"} {
		for _, seg := range segmentsOf(t, img, path) {
			for _, l := range seg.Blocks {
				released[l.CloudID+"/"+a.engine.BlockPath(seg.ID, l.BlockID)] = true
			}
		}
	}

	writeFile(t, fa, "edit.bin", randContent(3, 100_000))
	if err := fa.Remove("gone.bin"); err != nil {
		t.Fatal(err)
	}
	before := requestsUnder(recsA, transfer.DefaultBlockDir)
	if _, err := a.SyncDirty(ctxT(t), []string{"edit.bin", "gone.bin"}); err != nil {
		t.Fatal(err)
	}
	settle(t, a) // the deletes run in the hold's tail
	if got := requestsUnder(recsA, transfer.DefaultBlockDir).Minus(before).Delete; got != len(released) {
		t.Errorf("the committing device issued %d block DELETEs, want one per released block (%d)", got, len(released))
	}
	for _, st := range stores {
		for _, p := range st.Paths() {
			if released[st.Name()+"/"+p] {
				t.Errorf("%s: released block %s survives the commit", st.Name(), p)
			}
		}
	}

	before = requestsUnder(recsB, transfer.DefaultBlockDir)
	if rep, err := b.SyncOnce(ctxT(t)); err != nil || rep.CloudChanges != 2 {
		t.Fatalf("beta's apply: %+v, %v; want the overwrite and the delete applied", rep, err)
	}
	if got := requestsUnder(recsB, transfer.DefaultBlockDir).Minus(before).Delete; got != 0 {
		t.Errorf("the applying device issued %d block DELETEs, want 0", got)
	}
}

// deleteWatch counts the Delete calls per block path and the most that
// were in flight at once on its cloud.
type deleteWatch struct {
	cloud.Interface

	mu       sync.Mutex
	deletes  map[string]int
	inFlight int
	peak     int
}

func (w *deleteWatch) Delete(ctx context.Context, path string) error {
	if !strings.HasPrefix(path, transfer.DefaultBlockDir+"/") {
		return w.Interface.Delete(ctx, path)
	}
	w.mu.Lock()
	w.deletes[path]++
	w.inFlight++
	if w.inFlight > w.peak {
		w.peak = w.inFlight
	}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inFlight--
		w.mu.Unlock()
	}()
	return w.Interface.Delete(ctx, path)
}

// Overwriting a multi-segment file drops every segment of the old
// version: the pass deletes each of their blocks exactly once, in one
// batch that never has more than ConnsPerCloud deletes in flight on a
// cloud.
func TestOverwriteDeletesEveryDeadBlockOnce(t *testing.T) {
	const conns = 2
	watches := make([]*deleteWatch, 5)
	clouds := make([]cloud.Interface, len(watches))
	stores := make([]*cloudsim.Store, len(watches))
	for i := range watches {
		stores[i] = cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)
		watches[i] = &deleteWatch{Interface: cloudsim.NewDirect(stores[i]), deletes: make(map[string]int)}
		clouds[i] = watches[i]
	}
	folder := localfs.NewMem()
	reg := obs.NewRegistry()
	c, err := New(clouds, folder, Config{
		Device: "alpha", Passphrase: "shared-secret", Theta: 4096, ConnsPerCloud: conns, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, folder, "big.bin", randContent(3, 60_000))
	if _, err := c.SyncDirty(ctxT(t), []string{"big.bin"}); err != nil {
		t.Fatal(err)
	}
	// The batch ends in the hold's tail, and the poll records what it
	// landed after the commit.
	settle(t, c)
	if _, err := c.SyncRemote(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	img := c.Image()
	old := img.Lookup("big.bin").Current()
	if len(old.SegmentIDs) < 5 {
		t.Fatalf("file cut into %d segments, want a multi-segment file", len(old.SegmentIDs))
	}
	want := make(map[string]map[string]bool) // cloud -> block paths of the old version
	nWant := 0
	for _, id := range old.SegmentIDs {
		seg, ok := img.Segment(id)
		if !ok {
			t.Fatalf("segment %s missing from the image", id)
		}
		for _, b := range seg.Blocks {
			if want[b.CloudID] == nil {
				want[b.CloudID] = make(map[string]bool)
			}
			want[b.CloudID][c.engine.BlockPath(id, b.BlockID)] = true
			nWant++
		}
	}

	writeFile(t, folder, "big.bin", randContent(4, 60_000))
	if _, err := c.SyncDirty(ctxT(t), []string{"big.bin"}); err != nil {
		t.Fatal(err)
	}
	settle(t, c) // the deletes run in the hold's tail
	for i, w := range watches {
		name := stores[i].Name()
		if len(w.deletes) != len(want[name]) {
			t.Errorf("%s: %d block paths deleted, want %d", name, len(w.deletes), len(want[name]))
		}
		for path, n := range w.deletes {
			if !want[name][path] {
				t.Errorf("%s: deleted %s, not a block of the old version", name, path)
			}
			if n != 1 {
				t.Errorf("%s: %s deleted %d times", name, path, n)
			}
		}
		if w.peak > conns {
			t.Errorf("%s: %d deletes in flight at once, above ConnsPerCloud=%d", name, w.peak, conns)
		}
		for _, p := range stores[i].Paths() {
			if want[name][p] {
				t.Errorf("%s: dead block %s still stored", name, p)
			}
		}
	}
	s := reg.Snapshot()
	if got := s.Counter("transfer.delete.blocks"); got != int64(nWant) {
		t.Errorf("transfer.delete.blocks = %d, want %d", got, nWant)
	}
	if got := s.Counter("transfer.delete.blocks_failed") + s.Counter("transfer.delete.skipped"); got != 0 {
		t.Errorf("failed + skipped deletes = %d, want 0", got)
	}
}
