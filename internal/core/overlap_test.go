package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/deltasync"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/qlock"
	"unidrive/internal/transfer"
)

const versionPath = deltasync.DefaultDir + "/version"

// gate lets requests through unless the test holds it.
type gate struct {
	mu sync.Mutex
	ch chan struct{} // closed: requests proceed
}

func newGate() *gate {
	g := &gate{ch: make(chan struct{})}
	close(g.ch)
	return g
}

func (g *gate) hold() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ch = make(chan struct{})
}

// open lets requests through; opening an open gate does nothing.
func (g *gate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.ch:
	default:
		close(g.ch)
	}
}

func (g *gate) opened() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ch
}

// tap is what the overlap tests hold over one device's clouds: block
// uploads to one cloud stay in flight until the test lets them go (the
// gate of transfer/delete_test.go), version-stamp reads, block reads
// and version-stamp writes can be held the same way, lock flag uploads
// can be made to fail, and every version-stamp write is announced.
type tap struct {
	slow        string        // the cloud whose block uploads the blocks gate holds
	blocks      *gate         // block uploads to slow
	stampReads  *gate         // version-stamp reads, every cloud
	stampAsked  chan struct{} // one per held version-stamp read that arrived
	blockReads  *gate         // block reads, every cloud
	blockAsked  chan struct{} // one per held block read that arrived
	stampWrites *gate         // version-stamp writes, every cloud
	writeAsked  chan struct{} // one per held version-stamp write that arrived
	stampPut    chan struct{} // one per version-stamp write that landed
	failLocks   atomic.Bool
	mu          sync.Mutex
	blocksHeld  int // block uploads to slow in flight right now
	blocksAsked int // block uploads to slow that ever arrived
	// park, when set (parkUntil), holds the block uploads of one segment
	// to every cloud but spare until another segment has landed surplus
	// blocks; landed counts the blocks landed by segment meanwhile.
	park    string
	spare   string
	surplus int
	parked  *gate
	landed  map[string]int
}

func newTap(slow string) *tap {
	return &tap{
		slow: slow, blocks: newGate(), stampReads: newGate(), blockReads: newGate(), stampWrites: newGate(),
		// Never block the program under test: above any test's request count.
		stampAsked: make(chan struct{}, 1024), stampPut: make(chan struct{}, 1024),
		blockAsked: make(chan struct{}, 1024), writeAsked: make(chan struct{}, 1024),
	}
}

// parkUntil makes the extras flow: the block uploads of segment segID
// to every cloud but spare (and the slow one, which the blocks gate
// holds) wait until some other segment has landed surplus blocks.
// Until then segID holds spare's blocks alone, fewer than K, so the
// batch is not available and every cloud that has landed its fair share
// of another segment is handed that segment's extras.
func (tp *tap) parkUntil(segID, spare string, surplus int) {
	tp.park, tp.spare, tp.surplus = segID, spare, surplus
	tp.parked, tp.landed = newGate(), make(map[string]int)
	tp.parked.hold()
}

// parkedUpload is a block upload to a cloud the blocks gate does not
// hold, under parkUntil's rule.
func (c *tappedCloud) parkedUpload(ctx context.Context, path string, data []byte) error {
	tp := c.tap
	segID, _, _ := meta.ParseBlockName(strings.TrimPrefix(path, transfer.DefaultBlockDir+"/"))
	if segID == tp.park && c.Name() != tp.spare {
		select {
		case <-tp.parked.opened():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	err := c.Interface.Upload(ctx, path, data)
	if err == nil {
		tp.mu.Lock()
		tp.landed[segID]++
		if segID != tp.park && tp.landed[segID] >= tp.surplus {
			tp.parked.open()
		}
		tp.mu.Unlock()
	}
	return err
}

func (tp *tap) held() (inFlight, asked int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.blocksHeld, tp.blocksAsked
}

// awaitHeld waits until n block uploads to the slow cloud are in
// flight, or gives up after a while and lets the caller's assertion
// report. The dispatcher launches a cloud's uploads as soon as the batch
// starts, but a launched request reaches the cloud only once its
// goroutine runs, which on a loaded machine can be after the commit.
func (tp *tap) awaitHeld(n int) {
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if inFlight, _ := tp.held(); inFlight >= n {
			return
		}
	}
}

type tappedCloud struct {
	cloud.Interface
	tap *tap
}

func (c *tappedCloud) Upload(ctx context.Context, path string, data []byte) error {
	tp := c.tap
	switch {
	case strings.HasPrefix(path, qlock.DefaultLockDir+"/") && tp.failLocks.Load():
		return cloud.ErrUnavailable
	case path == versionPath:
		if err := through(ctx, tp.stampWrites, tp.writeAsked); err != nil {
			return err
		}
		err := c.Interface.Upload(ctx, path, data)
		if err == nil {
			tp.stampPut <- struct{}{}
		}
		return err
	case !strings.HasPrefix(path, transfer.DefaultBlockDir+"/"):
		return c.Interface.Upload(ctx, path, data)
	case c.Name() != tp.slow && tp.park != "":
		return c.parkedUpload(ctx, path, data)
	case c.Name() != tp.slow:
		return c.Interface.Upload(ctx, path, data)
	}
	tp.mu.Lock()
	tp.blocksHeld++
	tp.blocksAsked++
	tp.mu.Unlock()
	defer func() {
		tp.mu.Lock()
		tp.blocksHeld--
		tp.mu.Unlock()
	}()
	select {
	case <-tp.blocks.opened():
		return c.Interface.Upload(ctx, path, data)
	case <-ctx.Done():
		// A cancelled request does not vanish at once, and it still reads
		// its body: a pass that returned without draining the batch would
		// be caught with uploads in flight, and one that recycled the
		// coding buffers by the race detector.
		time.Sleep(50 * time.Millisecond)
		_ = meta.BlockSum(data)
		return ctx.Err()
	}
}

func (c *tappedCloud) Download(ctx context.Context, path string) ([]byte, error) {
	var err error
	switch {
	case path == versionPath:
		err = through(ctx, c.tap.stampReads, c.tap.stampAsked)
	case strings.HasPrefix(path, transfer.DefaultBlockDir+"/"):
		err = through(ctx, c.tap.blockReads, c.tap.blockAsked)
	}
	if err != nil {
		return nil, err
	}
	return c.Interface.Download(ctx, path)
}

// through lets a request pass g, announcing it on asked when g holds it.
func through(ctx context.Context, g *gate, asked chan<- struct{}) error {
	opened := g.opened()
	select {
	case <-opened:
		return nil
	default:
	}
	asked <- struct{}{}
	select {
	case <-opened:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tappedDevice is rig.device with every cloud behind the tap.
func (r *rig) tappedDevice(t *testing.T, name string, tp *tap) (*Client, *localfs.Mem, *obs.Registry) {
	t.Helper()
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, &tappedCloud{Interface: cloudsim.NewDirect(st), tap: tp})
	}
	folder, reg := localfs.NewMem(), obs.NewRegistry()
	c, err := New(clouds, folder, Config{
		Device: name, Passphrase: "shared-secret", Theta: 4096,
		LockExpiry: 500 * time.Millisecond, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, folder, reg
}

func await(t *testing.T, ch <-chan struct{}, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-ch:
		case <-time.After(20 * time.Second):
			t.Fatalf("only %d of %d %s", i, n, what)
		}
	}
}

// blockFiles counts the coded blocks a store holds.
func blockFiles(st *cloudsim.Store) (n int) {
	for _, p := range st.Paths() {
		if strings.HasPrefix(p, transfer.DefaultBlockDir+"/") {
			n++
		}
	}
	return n
}

// segmentsOf returns the pool records of a file's segments in img.
func segmentsOf(t *testing.T, img *meta.Image, path string) []*meta.Segment {
	t.Helper()
	snap := img.Lookup(path).Current()
	if snap == nil {
		t.Fatalf("%s not in image v%d", path, img.Version)
	}
	var segs []*meta.Segment
	for _, id := range snap.SegmentIDs {
		seg, ok := img.Segment(id)
		if !ok {
			t.Fatalf("%s: segment %s not in the pool", path, id)
		}
		segs = append(segs, seg)
	}
	return segs
}

// A multi-segment commit whose slowest cloud still has fair-share
// blocks queued when the batch becomes available: the metadata commit
// runs while that cloud's uploads are in flight and names only landed
// blocks; the pass takes that one lock round and ends at its commit, its
// batch runs on in the hold's tail, and the device's next lock hold
// records the final placement.
func TestCommitOverlapsTheReliabilityTail(t *testing.T) {
	r := newRig(5)
	tp := newTap("c4")
	a, fa, reg := r.tappedDevice(t, "alpha", tp)
	b, fb := r.device(t, "beta")
	writeFile(t, fa, "warm.txt", "one segment: everything in flight at availability")
	syncOK(t, a)
	settle(t, a) // the warm-up's batch ends in its hold; the next hold records what it owes
	await(t, tp.stampPut, cloud.Quorum(len(r.stores)), "warm-up version stamps")

	big := randContent(7, 10*4096) // more segments than connections per cloud
	writeFile(t, fa, "big.bin", big)
	tp.blocks.hold()
	_, warmAsked := tp.held()
	warmBlocks := blockFiles(r.stores[4])
	roundsBefore := reg.Counter("qlock.rounds").Value()
	tailsBefore := reg.Snapshot().Histograms["core.commit.tail_ms"].Count
	done := make(chan error, 1)
	go func() { _, err := a.SyncOnce(ctxT(t)); done <- err }()

	// The first commit lands with the slow cloud's connections all held
	// and more of its fair share queued behind them. The gate holds every
	// upload to it, so none can finish while the test waits for all of
	// them to arrive.
	await(t, tp.stampPut, cloud.Quorum(len(r.stores)), "version stamps of the first commit")
	tp.awaitHeld(transfer.DefaultConnsPerCloud)
	if inFlight, asked := tp.held(); inFlight != transfer.DefaultConnsPerCloud || asked-warmAsked != inFlight {
		t.Fatalf("at the first commit c4 has %d block uploads in flight of %d asked, want %d held and none finished",
			inFlight, asked-warmAsked, transfer.DefaultConnsPerCloud)
	}
	if n := blockFiles(r.stores[4]); n != warmBlocks {
		t.Fatalf("c4 holds %d block files at the first commit, want only the warm-up's %d", n, warmBlocks)
	}

	// Another device syncing now gets the file from the blocks landed so far.
	syncOK(t, b)
	requireFolders(t, map[string]string{"warm.txt": "one segment: everything in flight at availability", "big.bin": big},
		map[string]*localfs.Mem{"beta": fb})
	segs := segmentsOf(t, b.Image(), "big.bin")
	if len(segs) <= transfer.DefaultConnsPerCloud {
		t.Fatalf("big.bin has %d segments, the test needs more than %d", len(segs), transfer.DefaultConnsPerCloud)
	}
	for _, seg := range segs {
		// (Thin or not depends on how many extras the fast clouds landed.)
		if blocksOn(seg, "c4") != 0 || len(seg.Blocks) < seg.K {
			t.Fatalf("first commit recorded segment %s with %d blocks, %d on the held cloud", seg.ID, len(seg.Blocks), blocksOn(seg, "c4"))
		}
	}

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
	if got := reg.Counter("qlock.rounds").Value() - roundsBefore; got != 1 {
		t.Errorf("the pass took %d lock rounds, want 1", got)
	}
	if got := reg.Snapshot().Histograms["core.commit.tail_ms"].Count - tailsBefore; got != 1 {
		t.Errorf("core.commit.tail_ms has %d samples of the pass, want 1", got)
	}
	// c4's fair shares landed after the commit: owed to the next hold,
	// with the pass's intent committed in the journal until then.
	if got := reg.Gauge("core.placements.pending").Value(); got != float64(len(segs)) {
		t.Errorf("core.placements.pending = %v after the pass, want its %d segments", got, len(segs))
	}
	if in := a.journal.Active(); len(in) != 1 || in[0].State != journal.StateCommitted {
		t.Errorf("journal after the pass: %+v, want the pass's intent, committed", in)
	}

	rounds := reg.Counter("qlock.rounds").Value()
	rep, err := a.SyncRemote(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlacementsRecorded != len(segs) || rep.LocalChanges != 0 {
		t.Errorf("the next poll recorded %d placements and %d local changes, want %d and 0",
			rep.PlacementsRecorded, rep.LocalChanges, len(segs))
	}
	if got := reg.Counter("qlock.rounds").Value() - rounds; got != 1 {
		t.Errorf("recording the placements took %d lock rounds, want 1", got)
	}
	if got := reg.Gauge("core.placements.pending").Value(); got != 0 {
		t.Errorf("core.placements.pending = %v once recorded, want 0", got)
	}
	settle(t, a) // the recording hold's tail clears the intent
	if n := a.journal.Len(); n != 0 {
		t.Errorf("%d journal intents once the placements are recorded, want 0", n)
	}
	p := a.Params()
	for _, seg := range segmentsOf(t, a.Image(), "big.bin") {
		if seg.Thin {
			t.Errorf("segment %s still thin in the final image", seg.ID)
		}
		for id := 0; id < p.NormalBlocks(); id++ {
			if !seg.HasBlock(id, r.stores[id%len(r.stores)].Name()) {
				t.Errorf("segment %s: normal block %d not recorded on its cloud: %+v", seg.ID, id, seg.Blocks)
			}
		}
	}
	syncOK(t, b)
	if av, bv := a.Image().Version, b.Image().Version; av != bv {
		t.Fatalf("versions diverge: alpha v%d, beta v%d", av, bv)
	}
	auditBlocks(t, r, a.Image())
}

// The lock is lost while the reliability tail uploads: the pass returns
// its error only once the batch is cancelled and drained, and the next
// pass commits the same changes.
func TestCommitErrorDuringTheTailDrainsTheBatch(t *testing.T) {
	r := newRig(5)
	// Stamp reads are held: the commit waits between winning the lock and
	// checking it is still held, for as long as it takes a renewal to
	// fail.
	tp := newTap("c4")
	tp.blocks.hold()
	tp.stampReads.hold()
	a, fa, reg := r.tappedDevice(t, "alpha", tp)
	b, fb := r.device(t, "beta")
	big := randContent(8, 10*4096)
	writeFile(t, fa, "big.bin", big)
	done := make(chan error, 1)
	go func() { _, err := a.SyncOnce(ctxT(t)); done <- err }()
	await(t, tp.stampAsked, 1, "version-stamp reads under the lock")
	tp.failLocks.Store(true)
	for deadline := time.Now().Add(20 * time.Second); reg.Counter("qlock.refresh_lost").Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the lock was never lost")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tp.awaitHeld(transfer.DefaultConnsPerCloud)
	if inFlight, _ := tp.held(); inFlight != transfer.DefaultConnsPerCloud {
		t.Fatalf("%d block uploads in flight on c4 while the commit runs, want %d", inFlight, transfer.DefaultConnsPerCloud)
	}
	tp.stampReads.open()

	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "lock lost") {
			t.Fatalf("pass returned %v, want the lost lock", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the pass did not return")
	}
	if inFlight, _ := tp.held(); inFlight != 0 {
		t.Fatalf("the pass returned with %d block uploads still in flight", inFlight)
	}

	tp.failLocks.Store(false)
	tp.blocks.open()
	syncOK(t, a)
	syncOK(t, b)
	requireFolders(t, map[string]string{"big.bin": big}, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
}

// blocksFail holds every block upload until fail is closed, then fails
// it: a batch that never becomes available.
type blocksFail struct {
	cloud.Interface
	fail <-chan struct{}
}

func (c *blocksFail) Upload(ctx context.Context, path string, data []byte) error {
	if !strings.HasPrefix(path, transfer.DefaultBlockDir+"/") {
		return c.Interface.Upload(ctx, path, data)
	}
	select {
	case <-c.fail:
	case <-ctx.Done():
	}
	return cloud.ErrUnavailable
}

// A small batch's lock round is won beside its upload. When the upload
// then fails, the pass releases the lock it never committed under: no
// other device has to wait out the expiry.
func TestFailedUploadReleasesTheEarlyLock(t *testing.T) {
	r := newRig(5)
	fail := make(chan struct{})
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, &blocksFail{Interface: cloudsim.NewDirect(st), fail: fail})
	}
	folder, reg := localfs.NewMem(), obs.NewRegistry()
	a, err := New(clouds, folder, Config{Device: "alpha", Passphrase: "shared-secret", Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, folder, "small.txt", "one segment, one dispatch")
	done := make(chan error, 1)
	go func() { _, err := a.SyncOnce(ctxT(t)); done <- err }()
	for deadline := time.Now().Add(20 * time.Second); reg.Counter("qlock.acquire.won").Value() == 0; {
		if time.Now().After(deadline) {
			close(fail)
			t.Fatal("the lock was not won while the blocks were in flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(fail)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("the pass succeeded though no block landed")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the pass did not return")
	}
	if won, released := reg.Counter("qlock.acquire.won").Value(), reg.Counter("qlock.released").Value(); released != won {
		t.Errorf("%d locks won, %d released", won, released)
	}
	for _, st := range r.stores {
		for _, p := range st.Paths() {
			if strings.HasPrefix(p, qlock.DefaultLockDir+"/") {
				t.Errorf("%s keeps the flag %s", st.Name(), p)
			}
		}
	}
}

// blocksOn counts the blocks seg records on cloud.
func blocksOn(seg *meta.Segment, cloud string) int {
	n := 0
	for _, b := range seg.Blocks {
		if b.CloudID == cloud {
			n++
		}
	}
	return n
}
