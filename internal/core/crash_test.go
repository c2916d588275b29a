package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"unidrive/internal/chunker"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
)

// restartWithObs rebuilds a client over the same folder and stores with
// a fresh obs registry — a process restart after a crash, observable.
func restartWithObs(t *testing.T, r *rig, name string, folder *localfs.Mem, reg *obs.Registry) *Client {
	t.Helper()
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	c, err := New(clouds, folder, Config{
		Device: name, Passphrase: "shared-secret", Theta: 4096,
		LockExpiry: 500 * time.Millisecond, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// userFiles returns path -> content of every user-visible file in the
// folder (UniDrive's private .unidrive state excluded).
func userFiles(t *testing.T, f *localfs.Mem) map[string]string {
	t.Helper()
	infos, err := f.ListAll()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, fi := range infos {
		if strings.HasPrefix(fi.Path, localfs.StatePrefix) {
			continue
		}
		data, err := f.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		out[fi.Path] = string(data)
	}
	return out
}

func requireFolders(t *testing.T, want map[string]string, folders map[string]*localfs.Mem) {
	t.Helper()
	for dev, f := range folders {
		got := userFiles(t, f)
		if len(got) != len(want) {
			t.Errorf("%s: %d user files, want %d (%v)", dev, len(got), len(want), keysOf(got))
		}
		for path, content := range want {
			if got[path] != content {
				t.Errorf("%s: %s diverges (%d bytes vs %d wanted)", dev, path, len(got[path]), len(content))
			}
		}
	}
}

func keysOf(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// auditBlocks walks every store omnisciently and fails on any block
// file the committed image does not reference — the zero-orphan
// invariant crash recovery must restore.
func auditBlocks(t *testing.T, r *rig, img *meta.Image) {
	t.Helper()
	prefix := transfer.DefaultBlockDir + "/"
	for _, st := range r.stores {
		for _, p := range st.Paths() {
			if !strings.HasPrefix(p, prefix) {
				continue
			}
			segID, blockID, ok := meta.ParseBlockName(p[len(prefix):])
			if !ok {
				t.Errorf("%s: unparseable block file %q", st.Name(), p)
				continue
			}
			seg, _ := img.Segment(segID)
			if seg == nil || !seg.HasBlock(blockID, st.Name()) {
				t.Errorf("%s: unreferenced block %s survives recovery", st.Name(), p)
			}
		}
	}
}

// blockModTimes snapshots every block file's cloud-side modification
// time. A surviving block that gets re-uploaded is overwritten and its
// modTime moves — so stability across recovery proves resumption
// really skipped the transfer.
func blockModTimes(t *testing.T, r *rig) map[string]time.Time {
	t.Helper()
	out := make(map[string]time.Time)
	for _, st := range r.stores {
		entries, err := cloudsim.NewDirect(st).List(ctxT(t), transfer.DefaultBlockDir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir {
				continue
			}
			out[st.Name()+"/"+e.Name] = e.ModTime
		}
	}
	return out
}

// TestCrashRecoverySoak kills a device at each seeded crash point of
// the upload path and asserts the full recovery contract: after
// restart + Recover + one sync round, both devices' folders are
// byte-identical to the intended state, the metadata versions agree,
// no cloud holds a single unreferenced block, and blocks that survived
// the crash were adopted rather than re-uploaded.
func TestCrashRecoverySoak(t *testing.T) {
	cases := []struct {
		name  string
		point CrashPoint
		n     int
	}{
		// Die after 4 blocks of the availability upload: orphans that
		// no metadata and no journaled placement references.
		{"mid-upload", CrashMidUpload, 4},
		// Die holding the quorum lock, full availability set uploaded,
		// nothing committed.
		{"pre-commit", CrashPreCommit, 0},
		// Die after the metadata commit but before the journal heard
		// about it.
		{"post-commit", CrashPostCommit, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(5)
			a, fa := r.device(t, "alpha")
			b, fb := r.device(t, "beta")
			writeFile(t, fa, "keep.txt", "stable, edited by the crashed batch")
			writeFile(t, fa, "doomed.txt", "deleted by the crashed batch")
			syncOK(t, a)
			syncOK(t, b)

			// The batch the crash interrupts: a multi-segment add, an
			// edit, and a delete.
			big := randContent(42, 20_000)
			writeFile(t, fa, "big.bin", big)
			writeFile(t, fa, "keep.txt", "edited before the crash")
			if err := fa.Remove("doomed.txt"); err != nil {
				t.Fatal(err)
			}
			a.ArmCrash(tc.point, tc.n)
			if _, err := a.SyncOnce(ctxT(t)); !errors.Is(err, ErrCrashInjected) {
				t.Fatalf("pass survived the armed crash: %v", err)
			}
			survivors := blockModTimes(t, r)

			reg := obs.NewRegistry()
			a2 := restartWithObs(t, r, "alpha", fa, reg)
			if _, _, err := a2.LoadState(); err != nil {
				t.Fatal(err)
			}
			rec, err := a2.Recover(ctxT(t))
			if err != nil {
				t.Fatal(err)
			}
			if rec.IntentsReplayed == 0 {
				t.Fatal("the crash left no journal intent to replay")
			}
			syncOK(t, a2)
			settle(t, a2) // the resumed commit's batch ends in its hold's tail
			syncOK(t, a2) // records the placements the resumed commit's tail owes
			syncOK(t, b)
			syncOK(t, a2)

			want := map[string]string{
				"keep.txt": "edited before the crash",
				"big.bin":  big,
			}
			requireFolders(t, want, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
			img := a2.Image()
			if bv := b.Image().Version; bv != img.Version {
				t.Fatalf("device versions diverge after recovery: alpha v%d, beta v%d", img.Version, bv)
			}
			settle(t, a2) // the last hold's deletes run in its tail
			auditBlocks(t, r, img)

			// Surviving blocks must have been adopted, not re-uploaded:
			// every block file present both right after the crash and
			// now kept its cloud-side modTime.
			after := blockModTimes(t, r)
			for p, mt := range survivors {
				if now, still := after[p]; still && !now.Equal(mt) {
					t.Errorf("surviving block %s was re-uploaded during recovery", p)
				}
			}

			switch tc.point {
			case CrashMidUpload, CrashPreCommit:
				if rec.BlocksResumed == 0 {
					t.Error("recovery adopted no surviving blocks")
				}
				if got := reg.Counter("journal.resumed_blocks").Value(); got != int64(rec.BlocksResumed) {
					t.Errorf("journal.resumed_blocks = %d, report says %d", got, rec.BlocksResumed)
				}
			case CrashPostCommit:
				if rec.PathsSuppressed == 0 {
					t.Error("post-commit recovery suppressed no paths — the batch would re-commit")
				}
			}
			if got := reg.Counter("journal.recovered").Value(); got != int64(rec.IntentsReplayed) {
				t.Errorf("journal.recovered = %d, report says %d", got, rec.IntentsReplayed)
			}
		})
	}
}

// A device that dies right after its commit, before its pass deleted
// the blocks that commit released, is their only deleter: no other
// device runs here to apply the commit. Recover deletes them, and after
// it and one pass no cloud holds a block the image does not name.
func TestPostCommitCrashAloneLeavesNoReleasedBlocks(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "keep.txt", "stable, edited by the crashed batch")
	writeFile(t, fa, "doomed.txt", "deleted by the crashed batch")
	syncOK(t, a)
	settle(t, a) // the commit's batch ends in its hold's tail
	syncOK(t, a) // records the placements the commit's tail owes

	writeFile(t, fa, "keep.txt", "edited before the crash")
	if err := fa.Remove("doomed.txt"); err != nil {
		t.Fatal(err)
	}
	a.ArmCrash(CrashPostCommit, 0)
	if _, err := a.SyncOnce(ctxT(t)); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("pass survived the armed crash: %v", err)
	}

	a2 := restartWithObs(t, r, "alpha", fa, obs.NewRegistry())
	if _, _, err := a2.LoadState(); err != nil {
		t.Fatal(err)
	}
	rec, err := a2.Recover(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rec.OrphansReclaimed == 0 {
		t.Error("recovery deleted none of the blocks the commit released")
	}
	syncOK(t, a2)
	requireFolders(t, map[string]string{"keep.txt": "edited before the crash"}, map[string]*localfs.Mem{"alpha": fa})
	settle(t, a2) // the last hold's deletes run in its tail
	auditBlocks(t, r, a2.Image())
}

// TestCrashRecoveryMidApply kills the RECEIVING device halfway through
// materializing a cloud update, then asserts the half-applied folder
// recovers to byte-identical state without misreading the downloaded
// halves as local edits.
func TestCrashRecoveryMidApply(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")
	writeFile(t, fa, "one.txt", "v1 one")
	writeFile(t, fa, "two.txt", "v1 two")
	syncOK(t, a)
	syncOK(t, b)

	big := randContent(7, 12_000)
	writeFile(t, fa, "one.txt", "v2 one — rewritten")
	writeFile(t, fa, "two.txt", "v2 two — rewritten")
	writeFile(t, fa, "big.bin", big)
	syncOK(t, a)
	recordPlacements(t, a)

	// Beta dies after applying exactly one of the three files.
	b.ArmCrash(CrashMidApply, 1)
	if _, err := b.SyncOnce(ctxT(t)); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("apply survived the armed crash: %v", err)
	}

	reg := obs.NewRegistry()
	b2 := restartWithObs(t, r, "beta", fb, reg)
	if _, _, err := b2.LoadState(); err != nil {
		t.Fatal(err)
	}
	rec, err := b2.Recover(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rec.IntentsReplayed == 0 {
		t.Fatal("the crash left no journal intent to replay")
	}
	rep := syncOK(t, b2)
	if rep.LocalChanges != 0 {
		t.Fatalf("half-applied files re-detected as %d local edits", rep.LocalChanges)
	}
	if len(rep.Conflicts) != 0 {
		t.Fatalf("recovery manufactured conflicts: %v", rep.Conflicts)
	}
	syncOK(t, a)

	want := map[string]string{
		"one.txt": "v2 one — rewritten",
		"two.txt": "v2 two — rewritten",
		"big.bin": big,
	}
	requireFolders(t, want, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
	img := b2.Image()
	if av := a.Image().Version; av != img.Version {
		t.Fatalf("device versions diverge after recovery: alpha v%d, beta v%d", av, img.Version)
	}
	settle(t, a) // alpha's overwrite released blocks in its hold's tail
	auditBlocks(t, r, img)
}

// TestRecoverNoJournalIsNoop pins the fast path: a clean shutdown
// leaves no journal, and Recover must not even touch the network.
func TestRecoverNoJournalIsNoop(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "f.txt", "clean")
	syncOK(t, a)
	recordPlacements(t, a) // the recording hold's tail clears the intent
	if _, err := fa.ReadFile(journal.Path); err == nil {
		t.Fatal("journal file survives a clean pass")
	}
	a2 := restartDevice(t, r, "alpha", fa)
	rec, err := a2.Recover(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rec.IntentsReplayed != 0 {
		t.Fatalf("clean restart replayed %d intents", rec.IntentsReplayed)
	}
}

// Two journaled batches can name the same segment (the same content
// under two paths). Recovery judges each surviving block once, whatever
// the order of the intents: what one intent adopts for resumption the
// other must not reclaim, and what one reclaims the other must not
// adopt — an adopted block is one the resumed upload will not re-send.
func TestRecoverSharedSegmentJudgedOnce(t *testing.T) {
	for _, staleFirst := range []bool{true, false} {
		r := newRig(5)
		c, folder := r.device(t, "alpha")
		content := randContent(31, 1000) // one segment at θ=4096
		segs := c.chnk.Split([]byte(content))
		if len(segs) != 1 {
			t.Fatalf("content cut into %d segments, want 1", len(segs))
		}
		segID := chunker.SegmentID(segs[0].Data)
		// kept.bin still holds the journaled content, so its batch is
		// resumable; edited.bin was rewritten after the crash, so its
		// batch is stale and its unreferenced blocks are orphans.
		writeFile(t, folder, "kept.bin", content)
		writeFile(t, folder, "edited.bin", randContent(32, 1000))
		for _, b := range []int{0, 1, 2} {
			if err := c.engine.PutBlock(ctxT(t), r.stores[b].Name(), segID, b, []byte("block")); err != nil {
				t.Fatal(err)
			}
		}
		intent := func(path string) *journal.Intent {
			return &journal.Intent{
				ID: "batch-" + path, Kind: journal.KindUpload, State: journal.StateUploading,
				Changes: []*meta.Change{{
					Type: meta.ChangeAdd, Path: path,
					Snapshot: &meta.Snapshot{Path: path, Size: int64(len(content)), SegmentIDs: []string{segID}},
					Segments: []*meta.Segment{{ID: segID, Length: len(content), K: 3, N: 9}},
				}},
			}
		}
		order := []string{"kept.bin", "edited.bin"}
		if staleFirst {
			order = []string{"edited.bin", "kept.bin"}
		}
		for _, path := range order {
			if err := c.journal.Begin(intent(path)); err != nil {
				t.Fatal(err)
			}
		}

		if _, err := c.Recover(ctxT(t)); err != nil {
			t.Fatal(err)
		}
		for blockID, cloudName := range c.takeRecovered(segID) {
			stored := false
			for _, st := range r.stores {
				if st.Name() == cloudName {
					for _, p := range st.Paths() {
						stored = stored || p == c.engine.BlockPath(segID, blockID)
					}
				}
			}
			if !stored {
				t.Errorf("staleFirst=%v: block %d adopted on %s, but recovery deleted it", staleFirst, blockID, cloudName)
			}
		}
	}
}

// TestCrashResumeStampsEveryLocation pins the resumed upload's
// records: a pass that dies holding the lock, its availability set in
// the clouds, is resumed after restart from the blocks recovery
// adopts, and the commit names every adopted block with the checksum
// of the bytes its cloud holds — none goes unverified — and marks a
// segment thin exactly when it is short of its fair-share placement.
func TestCrashResumeStampsEveryLocation(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	big := randContent(43, 20_000)
	writeFile(t, fa, "big.bin", big)
	a.ArmCrash(CrashPreCommit, 0)
	if _, err := a.SyncOnce(ctxT(t)); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("pass survived the armed crash: %v", err)
	}

	a2 := restartWithObs(t, r, "alpha", fa, obs.NewRegistry())
	if _, _, err := a2.LoadState(); err != nil {
		t.Fatal(err)
	}
	rec, err := a2.Recover(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rec.BlocksResumed == 0 {
		t.Fatal("recovery adopted no surviving blocks")
	}
	syncOK(t, a2)

	segs := fileSegments(t, a2, "big.bin")
	if len(segs) < 2 {
		t.Fatalf("big.bin cut into %d segments, want several", len(segs))
	}
	stores := make(map[string]cloud.Interface)
	for _, st := range r.stores {
		stores[st.Name()] = cloudsim.NewDirect(st)
	}
	for _, seg := range segs {
		for _, b := range seg.Blocks {
			data, err := stores[b.CloudID].Download(ctxT(t), a2.engine.BlockPath(seg.ID, b.BlockID))
			if err != nil {
				t.Fatalf("segment %s block %d on %s: %v", seg.ID, b.BlockID, b.CloudID, err)
			}
			if want := meta.BlockSum(data); b.Checksum != want {
				t.Errorf("segment %s block %d on %s: stamp %08x, the cloud's bytes sum to %08x",
					seg.ID, b.BlockID, b.CloudID, b.Checksum, want)
			}
		}
		if short := len(seg.Blocks) < a2.normalTarget(seg); seg.Thin != short {
			t.Errorf("segment %s: thin=%v with %d of %d blocks", seg.ID, seg.Thin, len(seg.Blocks), a2.normalTarget(seg))
		}
	}
}
