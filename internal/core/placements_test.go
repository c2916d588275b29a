package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"unidrive/internal/chunker"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/deltasync"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
	"unidrive/internal/vclock"
)

// owingPass commits a big.bin of more segments than a cloud has
// connections from alpha, whose clouds are behind tp (newTap("c4")),
// with the block uploads to c4 held until the commit has landed, runs
// meanwhile (when not nil) while they are still held, then lets them
// go. The pass returns at its commit, with the gate still shut; once
// its hold's tail is joined alpha owes every segment's c4 share to its
// next lock hold.
func owingPass(t *testing.T, r *rig, tp *tap, meanwhile func()) (*Client, *localfs.Mem, *obs.Registry, string) {
	t.Helper()
	a, fa, reg := r.tappedDevice(t, "alpha", tp)
	big := owedFile()
	writeFile(t, fa, "big.bin", big)
	tp.blocks.hold()
	held := true
	defer func() {
		if held {
			tp.blocks.open()
		}
	}()
	done := make(chan error, 1)
	go func() { _, err := a.SyncOnce(ctxT(t)); done <- err }()
	await(t, tp.stampPut, cloud.Quorum(len(r.stores)), "version stamps of the commit")
	if meanwhile != nil {
		meanwhile()
	}
	held = false
	tp.blocks.open()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the pass did not finish after the gate opened")
	}
	settle(t, a) // the batch ends in the hold's tail, which hands over what it owes
	if got := reg.Gauge("core.placements.pending").Value(); got == 0 {
		t.Fatal("the pass owes no placements: the test tests nothing")
	}
	return a, fa, reg, big
}

// owedFile is the content owingPass commits.
func owedFile() string { return randContent(17, 10*4096) }

// tailSettled reports whether the batch of the last commit pass's hold,
// if it has one, has been settled: a polling pass takes what it owes
// from here on.
func tailSettled(c *Client) bool {
	c.writer.Lock()
	defer c.writer.Unlock()
	if c.last == nil || c.last.batch == nil {
		return true
	}
	select {
	case <-c.last.batch.settled:
		return true
	default:
		return false
	}
}

// owedBlocks counts the blocks the device owes to its next hold.
func owedBlocks(c *Client) int {
	n := 0
	for _, blocks := range c.owed.blocks {
		n += len(blocks)
	}
	return n
}

// auditNamed fails on any block location the image names that its
// cloud does not hold: metadata naming a block that is gone.
func auditNamed(t *testing.T, r *rig, img *meta.Image) {
	t.Helper()
	held := make(map[string]bool)
	for _, st := range r.stores {
		for _, p := range st.Paths() {
			held[st.Name()+"/"+p] = true
		}
	}
	for id, seg := range img.AllSegments() {
		for _, b := range seg.Blocks {
			if !held[b.CloudID+"/"+transfer.DefaultBlockDir+"/"+meta.BlockName(id, b.BlockID)] {
				t.Errorf("segment %s names block %d on %s, which the cloud does not hold", id, b.BlockID, b.CloudID)
			}
		}
	}
}

// requireRecorded checks that alpha owes nothing any more: every
// segment of big.bin names its normal block on c4, the pass's intent
// is cleared, and the clouds hold exactly the blocks the image names.
func requireRecorded(t *testing.T, r *rig, a *Client, reg *obs.Registry) {
	t.Helper()
	if got := reg.Gauge("core.placements.pending").Value(); got != 0 {
		t.Errorf("core.placements.pending = %v, want 0", got)
	}
	settle(t, a) // the recording hold's tail clears the intents
	if n := a.journal.Len(); n != 0 {
		t.Errorf("%d journal intents left, want 0", n)
	}
	img := a.Image()
	for _, seg := range segmentsOf(t, img, "big.bin") {
		if !seg.HasBlock(4, "c4") {
			t.Errorf("segment %s: c4's share not recorded: %+v", seg.ID, seg.Blocks)
		}
	}
	auditBlocks(t, r, img)
	auditNamed(t, r, img)
}

// Whatever a lock hold is for, it records the placements owed, in the
// one round it takes.
func TestOwedPlacementsRecordedByEveryHold(t *testing.T) {
	for _, tc := range []struct {
		name string
		hold func(t *testing.T, r *rig, a *Client, fa *localfs.Mem)
		// owes: the hold's own commit owes placements in turn, which the
		// hold after it records.
		owes bool
	}{
		{"a commit pass", func(t *testing.T, r *rig, a *Client, fa *localfs.Mem) {
			writeFile(t, fa, "small.txt", "one more file")
			owed := len(a.owed.blocks)
			if rep := syncOK(t, a); rep.LocalChanges != 1 || rep.PlacementsRecorded != owed {
				t.Errorf("the pass committed %d changes and recorded %d placements, want 1 and %d",
					rep.LocalChanges, rep.PlacementsRecorded, owed)
			}
		}, true},
		{"a trim", func(t *testing.T, r *rig, a *Client, fa *localfs.Mem) {
			if _, err := a.TrimOverProvisioned(ctxT(t)); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"a scrub repair", func(t *testing.T, r *rig, a *Client, fa *localfs.Mem) {
			// A copy lost behind the device's back gives the scrub a
			// repair to commit.
			seg := segmentsOf(t, a.Image(), "big.bin")[0]
			lost := seg.Blocks[0]
			for _, st := range r.stores {
				if st.Name() == lost.CloudID {
					if err := cloudsim.NewDirect(st).Delete(ctxT(t), a.engine.BlockPath(seg.ID, lost.BlockID)); err != nil {
						t.Fatal(err)
					}
				}
			}
			srep, err := a.Scrub(ctxT(t), true)
			if err != nil {
				t.Fatal(err)
			}
			if !srep.Committed {
				t.Fatal("the scrub committed no repair")
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(5)
			a, fa, reg, _ := owingPass(t, r, newTap("c4"), nil)
			rounds := reg.Counter("qlock.rounds").Value()
			tc.hold(t, r, a, fa)
			if got := reg.Counter("qlock.rounds").Value() - rounds; got != 1 {
				t.Errorf("the hold took %d lock rounds, want 1", got)
			}
			if got := reg.Gauge("core.placements.pending").Value(); got != 0 {
				t.Errorf("core.placements.pending = %v after the hold, want 0", got)
			}
			if tc.owes {
				recordPlacements(t, a)
			}
			requireRecorded(t, r, a, reg)
		})
	}
}

// With nothing else to commit, the loop's remote poll records the
// placements owed: the dirty pass that committed ends owing them, and
// the poll after it takes one lock round for them.
func TestOwedPlacementsRecordedByTheLoopsRemotePoll(t *testing.T) {
	r := newRig(5)
	tp := newTap("c4")
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, &tappedCloud{Interface: cloudsim.NewDirect(st), tap: tp})
	}
	clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
	fa, reg := localfs.NewMem(), obs.NewRegistry()
	a, err := New(clouds, fa, Config{
		Device: "alpha", Passphrase: "shared-secret", Theta: 4096,
		LockExpiry: 500 * time.Millisecond, Obs: reg,
		Clock: clk, SyncInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	startLoop(t, a, func(err error) { t.Error("pass error:", err) })
	waitCond(t, "the first pass", func() bool { return reg.Counter("deltasync.refresh.noop").Value() >= 1 })

	tp.blocks.hold()
	writeFile(t, fa, "big.bin", randContent(17, 10*4096))
	waitCond(t, "the watch event", func() bool { return reg.Counter("sync.watch.events").Value() >= 1 })
	clk.Advance(time.Second) // past the settle window: the dirty pass commits
	await(t, tp.stampPut, cloud.Quorum(len(r.stores)), "version stamps of the commit")
	rounds := reg.Counter("qlock.rounds").Value()
	tp.blocks.open()
	waitCond(t, "the dirty pass's batch to be settled in its tail", func() bool { return tailSettled(a) })
	time.Sleep(20 * time.Millisecond) // a turn of the loop: nothing is due before the poll
	if got := reg.Counter("qlock.rounds").Value() - rounds; got != 0 {
		t.Fatalf("%d lock rounds before the remote poll, want none", got)
	}

	clk.Advance(time.Minute) // the remote poll is due
	waitCond(t, "the poll to advance the view", func() bool {
		for _, seg := range segmentsOf(t, a.Image(), "big.bin") {
			if !seg.HasBlock(4, "c4") {
				return false
			}
		}
		return true
	})
	if got := reg.Counter("qlock.rounds").Value() - rounds; got != 1 {
		t.Errorf("the poll took %d lock rounds, want 1", got)
	}
	requireRecorded(t, r, a, reg)
}

// Another device trims the first commit's extras while alpha's tail is
// still uploading. The hold that records alpha's tail rebases it on the
// trimmed record: nothing the trim deleted is named again.
func TestOwedPlacementsRebaseOverAConcurrentTrim(t *testing.T) {
	r := newRig(5)
	var trimmed []transfer.BlockRef
	// Whether the first commit names a block over the normal placement of
	// five must not depend on how the machine schedules the uploads: one
	// segment is parked until another has landed six blocks.
	chnk, err := chunker.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	tp := newTap("c4")
	tp.parkUntil(chunker.IDs(chnk.Split([]byte(owedFile())))[0], "c0", 6)
	a, _, reg, _ := owingPass(t, r, tp, func() {
		b, _ := r.device(t, "beta")
		syncOK(t, b)
		before := b.Image()
		n, err := b.TrimOverProvisioned(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("the first commit named nothing over-provisioned: the test tests nothing")
		}
		after := b.Image()
		for id, seg := range before.AllSegments() {
			now, _ := after.Segment(id)
			for _, blk := range seg.Blocks {
				if !now.HasBlock(blk.BlockID, blk.CloudID) {
					trimmed = append(trimmed, transfer.BlockRef{SegID: id, BlockID: blk.BlockID, Cloud: blk.CloudID})
				}
			}
		}
	})
	owed := len(a.owed.blocks)
	rep, err := a.SyncRemote(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlacementsRecorded != owed {
		t.Errorf("recorded %d placements, want %d", rep.PlacementsRecorded, owed)
	}
	img := a.Image()
	for _, b := range trimmed {
		if seg, ok := img.Segment(b.SegID); ok && seg.HasBlock(b.BlockID, b.Cloud) {
			t.Errorf("segment %s: block %d on %s, trimmed, is named again", b.SegID, b.BlockID, b.Cloud)
		}
	}
	requireRecorded(t, r, a, reg)
}

// Owed blocks of a segment that died before the hold that would record
// them are deleted, never named — whether another device's commit or
// the hold's own commit drops the segment.
func TestOwedPlacementsOfDeadSegmentsAreDeleted(t *testing.T) {
	t.Run("another device deleted the file", func(t *testing.T) {
		r := newRig(5)
		var b *Client
		a, fa, reg, _ := owingPass(t, r, newTap("c4"), func() {
			var fb *localfs.Mem
			b, fb = r.device(t, "beta")
			syncOK(t, b)
			if err := fb.Remove("big.bin"); err != nil {
				t.Fatal(err)
			}
			if rep := syncOK(t, b); rep.LocalChanges != 1 {
				t.Fatalf("beta committed %d changes, want its delete", rep.LocalChanges)
			}
		})
		owed := owedBlocks(a)
		if rep := syncOK(t, a); rep.PlacementsRecorded != 0 || rep.CloudChanges != 1 {
			t.Errorf("alpha's pass recorded %d placements and applied %d changes, want 0 and the delete",
				rep.PlacementsRecorded, rep.CloudChanges)
		}
		if got := reg.Counter("core.placements.dropped").Value(); got != int64(owed) {
			t.Errorf("core.placements.dropped = %d, want the %d owed blocks", got, owed)
		}
		syncOK(t, b)
		settle(t, a) // the owed blocks go in the hold's tail
		settle(t, b) // and beta's delete released the file's in its own
		requireFolders(t, map[string]string{}, map[string]*localfs.Mem{"alpha": fa})
		auditBlocks(t, r, a.Image())
		auditNamed(t, r, a.Image())
		if n := a.journal.Len(); n != 0 {
			t.Errorf("%d journal intents left, want 0", n)
		}
	})
	t.Run("the next pass overwrites the file", func(t *testing.T) {
		r := newRig(5)
		a, fa, reg, _ := owingPass(t, r, newTap("c4"), nil)
		owed := owedBlocks(a)
		rewritten := randContent(18, 10*4096)
		writeFile(t, fa, "big.bin", rewritten)
		if rep := syncOK(t, a); rep.PlacementsRecorded != 0 || rep.LocalChanges != 1 {
			t.Errorf("the overwrite recorded %d placements and committed %d changes, want 0 and 1",
				rep.PlacementsRecorded, rep.LocalChanges)
		}
		if got := reg.Counter("core.placements.dropped").Value(); got != int64(owed) {
			t.Errorf("core.placements.dropped = %d, want the %d owed blocks", got, owed)
		}
		settle(t, a) // the overwrite's batch ends in its hold's tail
		syncOK(t, a) // records what the overwrite owes, if anything
		b, fb := r.device(t, "beta")
		syncOK(t, b)
		requireFolders(t, map[string]string{"big.bin": rewritten}, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
		settle(t, a) // the overwrite's released blocks go in its hold's tail
		auditBlocks(t, r, a.Image())
		auditNamed(t, r, a.Image())
	})
}

// A device that dies owing placements, before the hold that records
// them or right after that hold commits, recovers to segments of at
// least K blocks and clouds holding only named blocks.
func TestOwedPlacementsSurviveACrash(t *testing.T) {
	for _, postCommit := range []bool{false, true} {
		name := "before the recording hold"
		if postCommit {
			name = "after the recording hold commits"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(5)
			a, fa, _, big := owingPass(t, r, newTap("c4"), nil)
			if postCommit {
				a.ArmCrash(CrashPostCommit, 0)
				if _, err := a.SyncRemote(ctxT(t)); !errors.Is(err, ErrCrashInjected) {
					t.Fatalf("the recording hold survived the armed crash: %v", err)
				}
			}
			a2 := restartWithObs(t, r, "alpha", fa, obs.NewRegistry())
			if _, _, err := a2.LoadState(); err != nil {
				t.Fatal(err)
			}
			rec, err := a2.Recover(ctxT(t))
			if err != nil {
				t.Fatal(err)
			}
			if rec.IntentsReplayed != 1 {
				t.Fatalf("recovery replayed %d intents, want the owing pass's", rec.IntentsReplayed)
			}
			if !postCommit && rec.OrphansReclaimed == 0 {
				t.Error("recovery reclaimed none of the unrecorded tail")
			}
			b, fb := r.device(t, "beta")
			syncOK(t, a2)
			syncOK(t, b)
			syncOK(t, a2)
			requireFolders(t, map[string]string{"big.bin": big}, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
			img := a2.Image()
			if bv := b.Image().Version; bv != img.Version {
				t.Fatalf("versions diverge: alpha v%d, beta v%d", img.Version, bv)
			}
			for _, seg := range segmentsOf(t, img, "big.bin") {
				if len(seg.Blocks) < seg.K {
					t.Errorf("segment %s holds %d blocks, fewer than K=%d", seg.ID, len(seg.Blocks), seg.K)
				}
				if postCommit && !seg.HasBlock(4, "c4") {
					t.Errorf("segment %s: the crashed hold's record of c4's share is gone", seg.ID)
				}
			}
			settle(t, a2) // the last hold's deletes run in its tail
			auditBlocks(t, r, img)
			auditNamed(t, r, img)
		})
	}
}

// A hold never deletes an owed block its own commit names, even one the
// rebase left out: a scrub's repair relocate, built from an image that
// counted the block as held, may name it.
func TestOwedBlockNamedByTheCommitIsKept(t *testing.T) {
	post := meta.NewImage()
	post.UpsertSegment(&meta.Segment{ID: "s", K: 1, N: 2, RefCount: 1, Blocks: []meta.BlockLocation{
		{BlockID: 0, CloudID: "c0", Checksum: 1}, {BlockID: 1, CloudID: "c4", Checksum: 2},
	}})
	named := transfer.BlockRef{SegID: "s", BlockID: 1, Cloud: "c4"}
	unnamed := transfer.BlockRef{SegID: "s", BlockID: 1, Cloud: "c3"}
	_, dropped := (&Client{}).outlived(post, nil, []transfer.BlockRef{named, unnamed})
	if len(dropped) != 1 || dropped[0] != unnamed {
		t.Fatalf("dropped = %v, want only %v", dropped, unnamed)
	}
}

// A bulk pass whose slowest cloud's uploads are all parked at its commit
// owes that cloud's block of every segment. The next commit, of one
// file, records them as placement records, each of a segment ID and the
// one location it adds: its delta stays under λ, so the cloud base
// does not rotate and the checkpoint appends a delta instead of
// rewriting its base.
func TestOwedPlacementsOfABulkPassRideTheNextCommit(t *testing.T) {
	const bulk = 2000
	r := newRig(5)
	tp := newTap("c4")
	a, fa, reg := r.tappedDevice(t, "alpha", tp)
	for i := 0; i < bulk; i++ {
		writeFile(t, fa, fmt.Sprintf("dir%02d/f%04d.txt", i%20, i), fmt.Sprintf("content of file %d", i))
	}
	tp.blocks.hold()
	syncOK(t, a)
	tp.blocks.open()
	waitCond(t, "the bulk batch to be settled in its hold", func() bool { return tailSettled(a) })
	if got := reg.Counter("core.checkpoint.compactions").Value(); got != 1 {
		t.Fatalf("core.checkpoint.compactions = %d after the bulk pass, want its 1", got)
	}
	// The bases of the clouds the bulk commit rotated: no later commit of
	// the lineage may rewrite them.
	bases := make(map[string][]byte)
	for _, st := range r.stores {
		if b, err := cloudsim.NewDirect(st).Download(ctxT(t), deltasync.DefaultDir+"/base"); err == nil && len(b) > 100_000 {
			bases[st.Name()] = b
		}
	}
	if len(bases) < cloud.Quorum(len(r.stores)) {
		t.Fatalf("%d clouds hold the bulk commit's base, want a quorum", len(bases))
	}

	writeFile(t, fa, "one.txt", "one more file")
	rep := syncOK(t, a)
	if rep.LocalChanges != 1 || rep.PlacementsRecorded != bulk {
		t.Fatalf("the pass committed %d changes and recorded %d placements, want 1 and %d", rep.LocalChanges, rep.PlacementsRecorded, bulk)
	}
	for name, b := range bases {
		if now, err := cloudsim.NewDirect(r.stores[name[1]-'0']).Download(ctxT(t), deltasync.DefaultDir+"/base"); err != nil || !bytes.Equal(now, b) {
			t.Errorf("%s's base was rewritten: the one-file commit rotated it", name)
		}
	}
	if got := reg.Counter("core.checkpoint.compactions").Value(); got != 1 {
		t.Errorf("core.checkpoint.compactions = %d, want 1: the one-file commit rewrote the checkpoint base", got)
	}
	// The sealed records past the base — chunks and the active tail — on
	// a cloud holding the commit are the bulk commit's empty tail and the
	// one-file commit's record.
	sealed := 0
	for _, st := range r.stores {
		n := 0
		for _, p := range st.Paths() {
			if name, ok := strings.CutPrefix(p, deltasync.DefaultDir+"/"); ok && strings.HasPrefix(name, "delta") {
				b, err := cloudsim.NewDirect(st).Download(ctxT(t), p)
				if err != nil {
					t.Fatal(err)
				}
				n += len(b)
			}
		}
		sealed = max(sealed, n)
	}
	perSegment := sealed / bulk
	t.Logf("the one-file commit's delta: %d sealed bytes, %d per owed segment", sealed, perSegment)
	if perSegment < 64 || perSegment > 265 {
		t.Errorf("%d sealed delta bytes per owed segment, want a record of at least its 64-digit ID and at most 265 (half a whole-record relocate)", perSegment)
	}
}
