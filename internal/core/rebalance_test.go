package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/health"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
	"unidrive/internal/vclock"
)

// After SetClouds the client must be wired exactly like a fresh one:
// the added cloud is instrumented, capacity-observed and
// breaker-guarded, and the engine still claims its connections from
// the configured FairScheduler. (SetClouds used to rebuild the stack
// by hand and dropped all four.)
func TestSetCloudsKeepsTheWiring(t *testing.T) {
	reg, fairReg := obs.NewRegistry(), obs.NewRegistry()
	breakers := health.NewDefaultTracker(vclock.Real{}, 1, reg)
	// The capacity tracker's clock moves only when the test says: a cloud
	// it holds Full gets no block until the re-probe interval has passed.
	quotaClock := vclock.NewManual(time.Unix(1_700_000_000, 0))
	quota := capacity.NewDefaultTracker(quotaClock, reg)
	fair := transfer.NewFairScheduler(transfer.DefaultConnsPerCloud, fairReg)

	var clouds []cloud.Interface
	for i := 0; i < 5; i++ {
		clouds = append(clouds, cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)))
	}
	folder := localfs.NewMem()
	a, err := New(clouds, folder, Config{
		Device: "alpha", Passphrase: "shared-secret", Theta: 4096,
		LockExpiry: 500 * time.Millisecond,
		Obs:        reg, Health: breakers, Capacity: quota, Fair: fair, TenantID: "tenant-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, folder, "before.bin", randContent(1, 10_000))
	syncOK(t, a)

	added := cloudsim.NewFlaky(cloudsim.NewDirect(cloudsim.NewStore("c5", 0)), 0, 1)
	if err := a.SetClouds(ctxT(t), append(clouds, added)); err != nil {
		t.Fatal(err)
	}
	// The rebalance's own block moves are real requests: op-table rows.
	if reg.Op("c5", obs.OpUpload).Count(obs.OK) == 0 {
		t.Fatal("rebalance uploads to the added cloud left no op-table row")
	}

	grantedBefore := fairReg.Counter("fair.granted").Value()
	callsBefore := opCalls(reg, "c5")
	writeFile(t, folder, "after.bin", randContent(2, 10_000))
	syncOK(t, a)
	if got := opCalls(reg, "c5"); got <= callsBefore {
		t.Fatalf("a sync after SetClouds recorded no requests against the added cloud (%d → %d)", callsBefore, got)
	}
	if got := fairReg.Counter("fair.granted").Value(); got <= grantedBefore {
		t.Fatal("after SetClouds the engine no longer claims slots from the FairScheduler")
	}

	// A scripted quota rejection on the added cloud reaches the tracker.
	added.SetQuotaFull(true)
	writeFile(t, folder, "quota.bin", randContent(3, 10_000))
	syncOK(t, a)
	if got, want := quota.Rejections("c5"), int64(added.InjectedQuota()); got == 0 || got != want {
		t.Fatalf("capacity tracker saw %d quota rejections on c5, the cloud injected %d", got, want)
	}
	added.SetQuotaFull(false)
	// The quota is lifted and the tracker's re-probe is due, so the next
	// pass offers c5 its blocks. Without that its only request to c5 would
	// be a version-stamp read beyond the quorum, whose failure the breaker
	// may hear after the pass has returned.
	quotaClock.Advance(capacity.ProbeInterval)

	// A scripted outage trips its breaker, and the client routes around it.
	added.SetDown(true)
	writeFile(t, folder, "outage.bin", randContent(4, 10_000))
	syncOK(t, a)
	if got := breakers.Breaker("c5").State(); got != health.Open {
		t.Fatalf("c5's breaker is %v after an outage, want open", got)
	}
}

// opCalls totals the op-table rows of one cloud.
func opCalls(reg *obs.Registry, cloudName string) int64 {
	var n int64
	for _, row := range reg.Snapshot().Ops {
		if row.Cloud == cloudName {
			n += row.Calls()
		}
	}
	return n
}

// opRow is the snapshot's table row for (cloud, op), zero when absent.
func opRow(s obs.Snapshot, cloud, op string) obs.OpSnapshot {
	for _, row := range s.Ops {
		if row.Cloud == cloud && row.Op == op {
			return row
		}
	}
	return obs.OpSnapshot{}
}

// A rebalance that fails part-way must leave the committed metadata
// fully backed: nothing it names may have been deleted. (SetClouds used
// to delete each segment's reclaimed blocks as it went, before the
// commit; a failure on a later segment then returned with the committed
// image still naming them.)
func TestSetCloudsFailureDeletesNothingCommitted(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "data.bin", randContent(7, 10_000))
	syncOK(t, a)
	recordPlacements(t, a)

	// The second segment in walk order cannot be reconstructed: every
	// copy of its blocks reads back corrupt.
	img := a.Image()
	ids := img.SegmentIDs()
	if len(ids) < 2 {
		t.Fatalf("file cut into %d segments, want at least 2", len(ids))
	}
	broken, _ := img.Segment(ids[1])
	for _, b := range broken.Blocks {
		for _, f := range r.flaky["alpha"] {
			if f.Name() == b.CloudID {
				f.CorruptPath(a.engine.BlockPath(broken.ID, b.BlockID), cloudsim.CorruptStale)
			}
		}
	}

	// Adding c5 moves one block of every segment onto it and reclaims
	// what the old clouds then hold beyond their new fair share.
	clouds := []cloud.Interface{cloudsim.NewDirect(cloudsim.NewStore("c5", 0))}
	for _, f := range r.flaky["alpha"] {
		clouds = append(clouds, f)
	}
	if err := a.SetClouds(ctxT(t), clouds); err == nil {
		t.Fatal("SetClouds succeeded though a segment could not be reconstructed")
	}

	committed, err := a.FetchImage(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[string]bool)
	for _, st := range r.stores {
		for _, p := range st.Paths() {
			stored[st.Name()+"/"+p] = true
		}
	}
	for _, seg := range committed.AllSegments() {
		for _, b := range seg.Blocks {
			if !stored[b.CloudID+"/"+a.engine.BlockPath(seg.ID, b.BlockID)] {
				t.Errorf("committed image names block %d of %s on %s, which is gone", b.BlockID, seg.ID, b.CloudID)
			}
		}
	}
}

// journalWatch records every block upload its device's journal did not
// name before the request went out.
type journalWatch struct {
	cloud.Interface
	journal func() *journal.Journal

	mu          sync.Mutex
	uploads     int
	unjournaled []string
}

func (w *journalWatch) Upload(ctx context.Context, path string, data []byte) error {
	prefix := transfer.DefaultBlockDir + "/"
	if segID, blockID, ok := meta.ParseBlockName(strings.TrimPrefix(path, prefix)); ok && strings.HasPrefix(path, prefix) {
		named := slices.ContainsFunc(w.journal().Active(), func(in *journal.Intent) bool {
			return in.Placements[segID][blockID] == w.Name()
		})
		w.mu.Lock()
		w.uploads++
		if !named {
			w.unjournaled = append(w.unjournaled, path)
		}
		w.mu.Unlock()
	}
	return w.Interface.Upload(ctx, path, data)
}

// A rebalance that fails part-way leaves no block behind that no
// committed metadata names — not on the clouds it kept, not on the one
// it was adding — once it returned and Recover ran, and every block it
// uploaded was journaled before it was sent. (SetClouds used to upload
// without an intent and leave its uploads to the added cloud behind.)
func TestSetCloudsFailureLeavesNoOrphans(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "data.bin", randContent(7, 10_000))
	syncOK(t, a)
	recordPlacements(t, a)

	// The second segment in walk order cannot be reconstructed: every
	// copy of its blocks reads back corrupt.
	img := a.Image()
	ids := img.SegmentIDs()
	if len(ids) < 2 {
		t.Fatalf("file cut into %d segments, want at least 2", len(ids))
	}
	broken, _ := img.Segment(ids[1])
	for _, b := range broken.Blocks {
		for _, f := range r.flaky["alpha"] {
			if f.Name() == b.CloudID {
				f.CorruptPath(a.engine.BlockPath(broken.ID, b.BlockID), cloudsim.CorruptStale)
			}
		}
	}

	added := cloudsim.NewStore("c5", 0)
	watch := &journalWatch{Interface: cloudsim.NewDirect(added), journal: func() *journal.Journal { return a.journal }}
	clouds := []cloud.Interface{watch}
	for _, f := range r.flaky["alpha"] {
		clouds = append(clouds, f)
	}
	if err := a.SetClouds(ctxT(t), clouds); err == nil {
		t.Fatal("SetClouds succeeded though a segment could not be reconstructed")
	}
	if watch.uploads == 0 {
		t.Fatal("the rebalance uploaded nothing to the added cloud: the test tests nothing")
	}
	if len(watch.unjournaled) > 0 {
		t.Errorf("rebalance uploads sent before any intent named them: %v", watch.unjournaled)
	}
	if _, err := a.Recover(ctxT(t)); err != nil {
		t.Fatal(err)
	}

	committed, err := a.FetchImage(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	auditBlocks(t, &rig{stores: append(slices.Clone(r.stores), added)}, committed)
}
