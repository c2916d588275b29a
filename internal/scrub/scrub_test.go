package scrub

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"unidrive/internal/chunker"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/erasure"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/transfer"
)

// harness builds a scrubber over simulated clouds and a hand-rolled
// metadata image, with a Commit that lays placement records on it.
type harness struct {
	stores []*cloudsim.Store
	flaky  []*cloudsim.Flaky
	engine *transfer.Engine
	img    *meta.Image
	reg    *obs.Registry
	jrnl   *journal.Journal

	commits    int
	version    int64
	failCommit bool
}

func newHarness(t *testing.T, nClouds int) *harness {
	t.Helper()
	h := &harness{img: meta.NewImage(), reg: obs.NewRegistry(), version: 1}
	var clouds []cloud.Interface
	for i := 0; i < nClouds; i++ {
		st := cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)
		fl := cloudsim.NewFlaky(cloudsim.NewDirect(st), 0, int64(100+i))
		h.stores = append(h.stores, st)
		h.flaky = append(h.flaky, fl)
		clouds = append(clouds, fl)
	}
	h.engine = transfer.New(clouds, sched.NewProber(0), transfer.Config{Obs: h.reg})
	j, _, err := journal.Open(localfs.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	h.jrnl = j
	return h
}

// config is the scrubber's configuration over the harness, as a test
// adjusts it.
func (h *harness) config() Config {
	return Config{
		Engine:  h.engine,
		Image:   func(context.Context) (*meta.Image, error) { return h.img, nil },
		Commit:  h.commit,
		Journal: h.jrnl,
		Params:  paperParams,
		Device:  "tester",
		Obs:     h.reg,
	}
}

func (h *harness) scrubber(t *testing.T) *Scrubber {
	t.Helper()
	s, err := New(h.config())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (h *harness) commit(ctx context.Context, changes []*meta.Change) (int64, error) {
	if h.failCommit {
		return 0, fmt.Errorf("harness: commit refused")
	}
	h.commits++
	for _, ch := range changes {
		if ch.Type != meta.ChangePlace {
			return 0, fmt.Errorf("harness: unexpected change shape for %q", ch.Path)
		}
		if _, ok := h.img.Segment(ch.Path); !ok {
			return 0, fmt.Errorf("harness: placement of unknown segment %q", ch.Path)
		}
		if err := h.img.Apply(ch, "tester"); err != nil {
			return 0, err
		}
	}
	h.version++
	return h.version, nil
}

// addSegment encodes content, spreads one block per cloud round-robin,
// and records the segment with its stamps.
func (h *harness) addSegment(t *testing.T, seed int64, size, k int) *meta.Segment {
	t.Helper()
	content := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(content)
	n := len(h.stores)
	coder, err := erasure.NewCoder(k, n)
	if err != nil {
		t.Fatal(err)
	}
	blocks := coder.Encode(content)
	seg := &meta.Segment{
		ID: chunker.SegmentID(content), Length: size, K: k, N: n, RefCount: 1,
	}
	ctx := context.Background()
	for i, b := range blocks {
		cloudName := fmt.Sprintf("c%d", i%n)
		if err := h.engine.PutBlock(ctx, cloudName, seg.ID, i, b); err != nil {
			t.Fatal(err)
		}
		seg.Blocks = append(seg.Blocks, meta.BlockLocation{BlockID: i, CloudID: cloudName, Checksum: meta.BlockSum(b)})
	}
	h.img.UpsertSegment(seg)
	return seg
}

func (h *harness) blockPath(segID string, blockID int) string {
	return h.engine.BlockPath(segID, blockID)
}

func (h *harness) cloudIndex(t *testing.T, name string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(name, "c%d", &i); err != nil {
		t.Fatalf("bad cloud name %q", name)
	}
	return i
}

func counter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

func TestScrubCleanCycle(t *testing.T) {
	h := newHarness(t, 5)
	h.addSegment(t, 1, 4000, 3)
	h.addSegment(t, 2, 9000, 3)

	rep, err := h.scrubber(t).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 2 {
		t.Fatalf("Segments = %d, want 2", rep.Segments)
	}
	if rep.BlocksChecked != 10 || rep.BlocksVerified != 10 {
		t.Fatalf("checked/verified = %d/%d, want 10/10", rep.BlocksChecked, rep.BlocksVerified)
	}
	if rep.BlocksMissing+rep.BlocksCorrupt+rep.RepairedBlocks != 0 {
		t.Fatalf("clean store reported damage: %+v", rep)
	}
	if h.commits != 0 {
		t.Fatalf("clean cycle committed %d times", h.commits)
	}
	if got := counter(h.reg, "scrub.cycles"); got != 1 {
		t.Fatalf("scrub.cycles = %d", got)
	}
}

func TestScrubRepairsCorruptAndMissing(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addSegment(t, 3, 6000, 3)

	// Bit-flip block 1 at rest, delete block 4 outright.
	loc1 := seg.Blocks[1]
	h.flaky[h.cloudIndex(t, loc1.CloudID)].CorruptPath(h.blockPath(seg.ID, 1), cloudsim.CorruptBitFlip)
	loc4 := seg.Blocks[4]
	if err := cloudsim.NewDirect(h.stores[h.cloudIndex(t, loc4.CloudID)]).Delete(
		context.Background(), h.blockPath(seg.ID, 4)); err != nil {
		t.Fatal(err)
	}

	rep, err := h.scrubber(t).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksCorrupt != 1 || rep.BlocksMissing != 1 {
		t.Fatalf("corrupt/missing = %d/%d, want 1/1", rep.BlocksCorrupt, rep.BlocksMissing)
	}
	if rep.RepairedBlocks != 2 {
		t.Fatalf("RepairedBlocks = %d, want 2", rep.RepairedBlocks)
	}
	if !rep.Committed || h.commits != 1 {
		t.Fatalf("repair commit missing: committed=%v commits=%d", rep.Committed, h.commits)
	}
	if h.jrnl.Len() != 0 {
		t.Fatalf("journal not cleared after committed repair: %d intents", h.jrnl.Len())
	}
	// The re-upload replaced the rotten object (mark cleared).
	if paths := h.flaky[h.cloudIndex(t, loc1.CloudID)].CorruptedPaths(); len(paths) != 0 {
		t.Fatalf("corrupt copy not overwritten: %v", paths)
	}

	// Second cycle: fully healthy again, every copy stamped.
	rep2, err := h.scrubber(t).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BlocksVerified != 5 || rep2.BlocksCorrupt+rep2.BlocksMissing != 0 {
		t.Fatalf("store not restored: %+v", rep2)
	}
	cur, _ := h.img.Segment(seg.ID)
	for _, b := range cur.Blocks {
		if b.Checksum == 0 {
			t.Fatalf("block %d on %s left unstamped after repair", b.BlockID, b.CloudID)
		}
	}
}

func TestScrubVerifyOnlyNeverWrites(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addSegment(t, 4, 5000, 3)
	loc := seg.Blocks[2]
	h.flaky[h.cloudIndex(t, loc.CloudID)].CorruptPath(h.blockPath(seg.ID, 2), cloudsim.CorruptStale)

	rep, err := h.scrubber(t).Cycle(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksCorrupt != 1 {
		t.Fatalf("BlocksCorrupt = %d, want 1", rep.BlocksCorrupt)
	}
	if rep.RepairedBlocks != 0 || rep.Committed || h.commits != 0 {
		t.Fatalf("verify-only cycle wrote: %+v commits=%d", rep, h.commits)
	}
	// The rotten object is still rotten — nothing overwrote it.
	if paths := h.flaky[h.cloudIndex(t, loc.CloudID)].CorruptedPaths(); len(paths) != 1 {
		t.Fatalf("verify-only cycle cleared the corruption: %v", paths)
	}
}

func TestScrubUnknownCloudConservatism(t *testing.T) {
	h := newHarness(t, 5)
	h.addSegment(t, 9, 4000, 3)
	h.flaky[2].SetDown(true)
	defer h.flaky[2].SetDown(false)

	rep, err := h.scrubber(t).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.UnknownClouds) != 1 || rep.UnknownClouds[0] != "c2" {
		t.Fatalf("UnknownClouds = %v, want [c2]", rep.UnknownClouds)
	}
	// c2's copy was skipped, not presumed missing: no damage, no
	// repair, no commit.
	if rep.BlocksMissing != 0 || rep.BlocksCorrupt != 0 || rep.RepairedBlocks != 0 {
		t.Fatalf("unreachable cloud treated as data loss: %+v", rep)
	}
	if rep.BlocksChecked != 4 {
		t.Fatalf("BlocksChecked = %d, want 4 (c2 skipped)", rep.BlocksChecked)
	}
	if h.commits != 0 {
		t.Fatal("spurious commit for an unreachable cloud")
	}
}

func TestScrubUnrepairableBeyondK(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addSegment(t, 10, 5000, 3)
	// Corrupt 3 of 5 copies: only 2 verified remain < K=3.
	for _, blockID := range []int{0, 1, 2} {
		loc := seg.Blocks[blockID]
		h.flaky[h.cloudIndex(t, loc.CloudID)].CorruptPath(
			h.blockPath(seg.ID, blockID), cloudsim.CorruptStale)
	}

	rep, err := h.scrubber(t).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unrepairable) != 1 || rep.Unrepairable[0] != seg.ID {
		t.Fatalf("Unrepairable = %v, want [%s]", rep.Unrepairable, seg.ID)
	}
	if rep.RepairedBlocks != 0 || h.commits != 0 {
		t.Fatalf("unrepairable segment still wrote: repaired=%d commits=%d", rep.RepairedBlocks, h.commits)
	}
	if got := counter(h.reg, "scrub.unrepairable_segments"); got != 1 {
		t.Fatalf("scrub.unrepairable_segments = %d", got)
	}
}

func TestScrubFailedCommitKeepsIntent(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addSegment(t, 11, 4000, 3)
	loc := seg.Blocks[2]
	h.flaky[h.cloudIndex(t, loc.CloudID)].CorruptPath(h.blockPath(seg.ID, 2), cloudsim.CorruptBitFlip)
	h.failCommit = true

	_, err := h.scrubber(t).Cycle(context.Background(), true)
	if err == nil || !strings.Contains(err.Error(), "committing repairs") {
		t.Fatalf("cycle error = %v, want commit failure", err)
	}
	// The repair intent survives for crash recovery to reclaim.
	if h.jrnl.Len() != 1 {
		t.Fatalf("journal has %d intents, want 1", h.jrnl.Len())
	}
	in := h.jrnl.Active()[0]
	if in.Kind != journal.KindRepair {
		t.Fatalf("intent kind = %q, want %q", in.Kind, journal.KindRepair)
	}
	if in.Placements[seg.ID][2] != loc.CloudID {
		t.Fatalf("intent placements = %v, want block 2 on %s", in.Placements, loc.CloudID)
	}
}

func TestScrubFairSchedulerLowPriority(t *testing.T) {
	h := newHarness(t, 3)
	h.addSegment(t, 12, 3000, 2)

	fair := transfer.NewFairScheduler(1, h.reg)
	// Another tenant holds every cloud's only slot; the scrubber must
	// wait (without reserving) until the slots free up.
	for _, name := range h.engine.CloudNames() {
		if !fair.Acquire(name, "foreground") {
			t.Fatalf("foreground could not take %s", name)
		}
	}
	cfg := h.config()
	cfg.Fair, cfg.Tenant = fair, "scrubber"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Cycle(context.Background(), true)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("cycle finished while all slots were held (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	for _, name := range h.engine.CloudNames() {
		fair.Release(name, "foreground")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if counter(h.reg, "scrub.fair_denied") == 0 {
		t.Fatal("scrubber never recorded a denied slot")
	}
	for _, name := range h.engine.CloudNames() {
		if held := fair.Held(name, "scrubber"); held != 0 {
			t.Fatalf("scrubber leaked %d slots on %s", held, name)
		}
	}
}

func TestScrubRateLimitPacing(t *testing.T) {
	h := newHarness(t, 3)
	h.addSegment(t, 13, 3000, 2)
	cfg := h.config()
	cfg.RatePerSec = 1000 // 1ms per verification fetch: pacing path, fast test
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := s.Cycle(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksVerified != 3 {
		t.Fatalf("BlocksVerified = %d, want 3", rep.BlocksVerified)
	}
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("cycle took %v, want >= 3ms under the rate limit", elapsed)
	}
}

func TestScrubRepairFallsBackToAnotherCloud(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addSegment(t, 15, 5000, 3)
	// Corrupt block 1's copy, then script its cloud to refuse every
	// call after the corrupt copy has been fetched: the cycle detects
	// the damage but cannot overwrite in place, so the replacement
	// must land on the reachable cloud holding the fewest blocks.
	loc := seg.Blocks[1]
	idx := h.cloudIndex(t, loc.CloudID)
	h.flaky[idx].CorruptPath(h.blockPath(seg.ID, 1), cloudsim.CorruptBitFlip)
	// Ops on that cloud this cycle: 0=List, 1=the corrupt fetch; the
	// repair upload (op 2+) hits the outage.
	h.flaky[idx].AddOutageWindow(h.flaky[idx].Ops()+2, 1<<30)

	rep, err := h.scrubber(t).Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksCorrupt != 1 || rep.RepairedBlocks != 1 {
		t.Fatalf("corrupt/repaired = %d/%d, want 1/1", rep.BlocksCorrupt, rep.RepairedBlocks)
	}
	if counter(h.reg, "scrub.repair_failed") == 0 {
		t.Fatal("primary-target upload failure not recorded")
	}
	cur, _ := h.img.Segment(seg.ID)
	var moved *meta.BlockLocation
	for i := range cur.Blocks {
		if cur.Blocks[i].BlockID == 1 {
			moved = &cur.Blocks[i]
		}
	}
	if moved == nil {
		t.Fatal("block 1 vanished from the placement")
	}
	if moved.CloudID == loc.CloudID {
		t.Fatalf("block 1 still placed on unreachable %s", loc.CloudID)
	}
	if moved.Checksum == 0 {
		t.Fatal("replacement committed without a stamp")
	}
}

func TestScrubRepairUnderFairAndRateLimit(t *testing.T) {
	h := newHarness(t, 5)
	seg := h.addSegment(t, 16, 4000, 3)
	loc := seg.Blocks[0]
	h.flaky[h.cloudIndex(t, loc.CloudID)].CorruptPath(h.blockPath(seg.ID, 0), cloudsim.CorruptStale)

	fair := transfer.NewFairScheduler(2, h.reg)
	cfg := h.config()
	cfg.Fair, cfg.Tenant, cfg.RatePerSec = fair, "scrubber", 2000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Cycle(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedBlocks != 1 || !rep.Committed {
		t.Fatalf("repair under fair+rate failed: %+v", rep)
	}
	for _, name := range h.engine.CloudNames() {
		if held := fair.Held(name, "scrubber"); held != 0 {
			t.Fatalf("scrubber leaked %d slots on %s", held, name)
		}
	}
}

func TestScrubCancelledContext(t *testing.T) {
	h := newHarness(t, 3)
	h.addSegment(t, 14, 3000, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.scrubber(t).Cycle(ctx, true); err == nil {
		t.Fatal("cancelled cycle returned nil error")
	}
}

func TestScrubCancelledWhilePacing(t *testing.T) {
	h := newHarness(t, 3)
	h.addSegment(t, 17, 3000, 2)
	cfg := h.config()
	cfg.RatePerSec = 0.001 // ~17 minutes per fetch: the cycle must die waiting
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Cycle(ctx, true); err == nil {
		t.Fatal("cycle outran a 17-minute pacing interval")
	}
}

func TestScrubConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty config")
	}
	h := newHarness(t, 3)
	for name, drop := range map[string]func(*Config){
		"Engine":  func(c *Config) { c.Engine = nil },
		"Image":   func(c *Config) { c.Image = nil },
		"Journal": func(c *Config) { c.Journal = nil },
		"Params":  func(c *Config) { c.Params = sched.Params{} },
	} {
		cfg := h.config()
		drop(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted a config without %s", name)
		}
	}
	cfg := h.config()
	cfg.Commit = nil
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cycle(context.Background(), true); err == nil {
		t.Fatal("repair cycle without Commit returned nil error")
	}
	if _, err := s.Cycle(context.Background(), false); err != nil {
		t.Fatalf("verify-only cycle without Commit failed: %v", err)
	}
}
