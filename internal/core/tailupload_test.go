package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"unidrive/internal/chunker"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
)

// parkedPass commits path, content of more segments than a cloud has
// connections, from a, with every block upload to tp's slow cloud
// parked, and returns once the pass has: at its commit, with the slow
// cloud's uploads still in flight.
func parkedPass(t *testing.T, r *rig, a *Client, fa *localfs.Mem, tp *tap, path, content string) SyncReport {
	t.Helper()
	writeFile(t, fa, path, content)
	tp.blocks.hold()
	_, asked := tp.held()
	type result struct {
		rep SyncReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := a.SyncOnce(ctxT(t))
		done <- result{rep, err}
	}()
	var rep SyncReport
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		rep = res.rep
	case <-time.After(20 * time.Second):
		tp.blocks.open()
		t.Fatal("the pass waited for its parked reliability tail")
	}
	if inFlight, now := tp.held(); inFlight == 0 || now == asked {
		t.Fatalf("the pass returned with %d of the slow cloud's %d block uploads in flight, want them parked", inFlight, now-asked)
	}
	return rep
}

// A multi-segment pass returns at its commit while the slowest cloud's
// block uploads are parked: another device applies the file from the
// commit's record, and a poll while the batch runs leaves it alone. Once
// the batch has ended, the next polling hold records what it owes, and
// the clouds hold exactly the blocks the metadata names.
func TestBulkPassEndsAtItsCommit(t *testing.T) {
	r := newRig(5)
	tp := newTap("c4")
	a, fa, reg := r.tappedDevice(t, "alpha", tp)
	b, fb := r.device(t, "beta")
	big := randContent(17, 10*4096)
	rounds := reg.Counter("qlock.rounds").Value()
	parkedPass(t, r, a, fa, tp, "big.bin", big)
	defer tp.blocks.open()

	syncOK(t, b)
	requireFolders(t, map[string]string{"big.bin": big}, map[string]*localfs.Mem{"beta": fb})
	for _, seg := range segmentsOf(t, b.Image(), "big.bin") {
		if blocksOn(seg, "c4") != 0 {
			t.Fatalf("segment %s names a block on c4, whose uploads are all parked", seg.ID)
		}
	}
	rep, err := a.SyncRemote(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlacementsRecorded != 0 {
		t.Errorf("a poll beside the running batch recorded %d placements, want none", rep.PlacementsRecorded)
	}
	if got := reg.Counter("qlock.rounds").Value() - rounds; got != 1 {
		t.Errorf("%d lock rounds with the batch running, want the commit's 1", got)
	}

	tp.blocks.open()
	waitCond(t, "the batch to be settled in the hold's tail", func() bool { return tailSettled(a) })
	segs := len(segmentsOf(t, a.Image(), "big.bin"))
	if rep, err = a.SyncRemote(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if rep.PlacementsRecorded != segs {
		t.Errorf("the poll after the batch recorded %d placements, want its %d segments", rep.PlacementsRecorded, segs)
	}
	if got := reg.Counter("core.tail.upload_joins").Value(); got != 0 {
		t.Errorf("core.tail.upload_joins = %d, want 0: no pass uploaded beside the batch", got)
	}
	requireRecorded(t, r, a, reg)
	syncOK(t, b)
	if av, bv := a.Image().Version, b.Image().Version; av != bv {
		t.Fatalf("versions diverge: alpha v%d, beta v%d", av, bv)
	}
}

// A second pass started while the first one's batch is parked in its
// hold's tail waits at its upload for that batch to end: it uploads no
// block beside it, so the tenant has one batch open at a time. Its
// commit then records what the first batch owes. A single-file pass
// commits at availability as a bulk pass does, and returns with the
// slowest cloud's block parked.
func TestNextBulkPassJoinsTheRunningBatch(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second string
	}{
		{"bulk", randContent(17, 10*4096), randContent(18, 10*4096)},
		{"single file", randContent(27, 3000), randContent(28, 3000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(5)
			tp := newTap("c4")
			a, fa, reg := r.tappedDevice(t, "alpha", tp)
			parkedPass(t, r, a, fa, tp, "first.bin", tc.first)
			defer tp.blocks.open()
			owed := len(segmentsOf(t, a.Image(), "first.bin"))

			writeFile(t, fa, "second.bin", tc.second)
			type result struct {
				rep SyncReport
				err error
			}
			done := make(chan result, 1)
			go func() {
				rep, err := a.SyncOnce(ctxT(t))
				done <- result{rep, err}
			}()
			waitCond(t, "the second pass to join the batch", func() bool { return reg.Counter("core.tail.upload_joins").Value() == 1 })
			time.Sleep(20 * time.Millisecond) // room for a block the second pass should not send
			ids := chunker.IDs(a.chnk.Split([]byte(tc.second)))
			for _, st := range r.stores {
				for _, p := range st.Paths() {
					if segID, _, ok := meta.ParseBlockName(strings.TrimPrefix(p, transfer.DefaultBlockDir+"/")); ok && slices.Contains(ids, segID) {
						t.Fatalf("%s holds %s beside the parked batch: two batches open", st.Name(), p)
					}
				}
			}
			tp.blocks.open()
			select {
			case res := <-done:
				if res.err != nil {
					t.Fatal(res.err)
				}
				if res.rep.PlacementsRecorded != owed {
					t.Errorf("the second pass recorded %d placements, want the first's %d segments", res.rep.PlacementsRecorded, owed)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("the second pass did not finish after the batch ended")
			}
			if got := reg.Counter("core.tail.upload_joins").Value(); got != 1 {
				t.Errorf("core.tail.upload_joins = %d, want 1", got)
			}
			for _, seg := range segmentsOf(t, a.Image(), "first.bin") {
				if blocksOn(seg, "c4") == 0 {
					t.Errorf("segment %s: c4's block, owed, is not recorded: %+v", seg.ID, seg.Blocks)
				}
			}
			recordPlacements(t, a) // records what the second pass owes
			b, fb := r.device(t, "beta")
			syncOK(t, b)
			requireFolders(t, map[string]string{"first.bin": tc.first, "second.bin": tc.second},
				map[string]*localfs.Mem{"beta": fb})
			auditBlocks(t, r, a.Image())
			auditNamed(t, r, a.Image())
		})
	}
}

// A crash in the tail of an overwrite whose batch is parked: the
// batch is cut short and the intent stays committed, naming the
// segments the overwrite released. Recover reclaims the released blocks
// and whatever the batch landed that no metadata names, and the file
// reads whole from the commit's record.
func TestCrashInTheTailWithTheBatchParked(t *testing.T) {
	r := newRig(5)
	tp := newTap("c4")
	a, fa, _ := r.tappedDevice(t, "alpha", tp)
	writeFile(t, fa, "big.bin", randContent(17, 10*4096))
	syncOK(t, a)
	settle(t, a)
	syncOK(t, a) // records the first version's final placements
	settle(t, a)
	released := 0
	for _, seg := range segmentsOf(t, a.Image(), "big.bin") {
		released += len(seg.Blocks)
	}

	a.ArmCrash(CrashInTail, 0)
	rewritten := randContent(19, 10*4096)
	if rep := parkedPass(t, r, a, fa, tp, "big.bin", rewritten); rep.LocalChanges != 1 {
		t.Fatalf("the overwrite committed %d changes, want 1", rep.LocalChanges)
	}
	settle(t, a) // the crash cancels the parked batch
	if inFlight, _ := tp.held(); inFlight != 0 {
		t.Fatalf("%d block uploads in flight after the crashed tail", inFlight)
	}
	tp.blocks.open()
	in := a.journal.Active()
	if len(in) != 1 || in[0].State != journal.StateCommitted || len(in[0].Released) == 0 {
		t.Fatalf("journal after the crashed tail: %+v, want the pass's intent, committed, naming its released segments", in)
	}

	a2 := restartWithObs(t, r, "alpha", fa, obs.NewRegistry())
	if restored, _, err := a2.LoadState(); err != nil || !restored {
		t.Fatalf("LoadState: restored %v, %v", restored, err)
	}
	rep, err := a2.Recover(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.IntentsReplayed != 1 || rep.OrphansReclaimed < released {
		t.Errorf("recovery replayed %d intents and reclaimed %d blocks, want 1 and at least the %d released",
			rep.IntentsReplayed, rep.OrphansReclaimed, released)
	}
	if n := a2.journal.Len(); n != 0 {
		t.Errorf("%d journal intents after recovery, want 0", n)
	}
	img := a2.Image()
	for _, seg := range segmentsOf(t, img, "big.bin") {
		if len(seg.Blocks) < seg.K {
			t.Errorf("segment %s holds %d blocks, fewer than K=%d", seg.ID, len(seg.Blocks), seg.K)
		}
	}
	auditBlocks(t, r, img)
	auditNamed(t, r, img)
	b, fb := r.device(t, "beta")
	syncOK(t, b)
	requireFolders(t, map[string]string{"big.bin": rewritten}, map[string]*localfs.Mem{"beta": fb})
}
