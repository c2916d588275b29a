package core

import (
	"context"
	"errors"
	"slices"
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
	"unidrive/internal/vclock"
)

// tailWatch is what the tail tests hold over one device's clouds: block
// deletes and the off cloud's base uploads can be parked, the stamp
// reads of the late clouds can be made to wait until a base upload to
// the off cloud has started, and the order in which block and flag
// uploads and deletes, base uploads and stamp reads take effect is
// logged.
type tailWatch struct {
	off      string   // the cloud a base upload goes to
	late     []string // the clouds whose stamp reads wait, while holdLate
	holdLate atomic.Bool
	baseSent chan struct{} // closed when a base upload to off starts
	sentOnce sync.Once

	deletes     *gate // block deletes, every cloud
	deleteAsked chan struct{}
	bases       *gate // base uploads to off
	baseAsked   chan struct{}

	mu  sync.Mutex
	log []string // "<op> <cloud>/<path>", in the order they took effect
}

func newTailWatch(off string, late ...string) *tailWatch {
	return &tailWatch{
		off: off, late: late, baseSent: make(chan struct{}),
		deletes: newGate(), bases: newGate(),
		// Never block the program under test: above any test's request count.
		deleteAsked: make(chan struct{}, 1024), baseAsked: make(chan struct{}, 1024),
	}
}

func (w *tailWatch) note(op, cloudName, path string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log = append(w.log, op+" "+cloudName+"/"+path)
	return len(w.log) - 1
}

// entries returns the logged entries with the given op, under the given
// path prefix, and their positions in the log.
func (w *tailWatch) entries(op, prefix string) (names []string, at []int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, e := range w.log {
		what, name, _ := strings.Cut(e, " ")
		if _, path, _ := strings.Cut(name, "/"); what == op && strings.HasPrefix(path, prefix) {
			names, at = append(names, name), append(at, i)
		}
	}
	return names, at
}

type tailCloud struct {
	cloud.Interface
	w *tailWatch
}

func (c *tailCloud) Upload(ctx context.Context, path string, data []byte) error {
	w := c.w
	isBase := c.Name() == w.off && path == deltasync.DefaultDir+"/base"
	if isBase && w.holdLate.Load() {
		w.sentOnce.Do(func() { close(w.baseSent) })
		if err := through(ctx, w.bases, w.baseAsked); err != nil {
			return err
		}
	}
	err := c.Interface.Upload(ctx, path, data)
	if err == nil && (isBase || strings.HasPrefix(path, transfer.DefaultBlockDir+"/") || strings.HasPrefix(path, qlock.DefaultLockDir+"/")) {
		w.note("upload", c.Name(), path)
	}
	return err
}

func (c *tailCloud) Download(ctx context.Context, path string) ([]byte, error) {
	w := c.w
	if path == versionPath {
		w.note("download", c.Name(), path)
	}
	if path == versionPath && w.holdLate.Load() && slices.Contains(w.late, c.Name()) {
		select {
		case <-w.baseSent:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return c.Interface.Download(ctx, path)
}

func (c *tailCloud) Delete(ctx context.Context, path string) error {
	w := c.w
	block := strings.HasPrefix(path, transfer.DefaultBlockDir+"/")
	if block {
		if err := through(ctx, w.deletes, w.deleteAsked); err != nil {
			return err
		}
	}
	err := c.Interface.Delete(ctx, path)
	if err == nil && (block || strings.HasPrefix(path, qlock.DefaultLockDir+"/")) {
		w.note("delete", c.Name(), path)
	}
	return err
}

// tailDevice is rig.device with every cloud behind the watch, on clk.
func (r *rig) tailDevice(t *testing.T, name string, w *tailWatch, clk vclock.Clock) (*Client, *localfs.Mem, *obs.Registry) {
	t.Helper()
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, &tailCloud{Interface: cloudsim.NewDirect(st), w: w})
	}
	folder, reg := localfs.NewMem(), obs.NewRegistry()
	c, err := New(clouds, folder, Config{
		Device: name, Passphrase: "shared-secret", Theta: 4096,
		Clock: clk, LockExpiry: time.Minute, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, folder, reg
}

// blockNames lists the cloud/path of every block of the file's
// segments in img.
func blockNames(t *testing.T, c *Client, img *meta.Image, path string) []string {
	t.Helper()
	var names []string
	for _, seg := range segmentsOf(t, img, path) {
		for _, b := range seg.Blocks {
			names = append(names, b.CloudID+"/"+c.engine.BlockPath(seg.ID, b.BlockID))
		}
	}
	return names
}

// A file deleted and its content added again at once: the deleting
// pass returns with the deletes of the released blocks parked in its
// hold's tail, and the adding pass, whose segments are the released
// ones, joins the tail before it uploads them — so no delete lands on
// a block the re-add uploaded, and a second device reads the file
// whole.
func TestReaddWhileTheTailDeletesTheReleasedBlocks(t *testing.T) {
	r := newRig(5)
	w := newTailWatch("none")
	a, fa, reg := r.tailDevice(t, "alpha", w, vclock.Real{})
	b, fb := r.device(t, "beta")
	content := randContent(41, 3*4096)
	writeFile(t, fa, "first.bin", content)
	syncOK(t, a)
	recordPlacements(t, a)
	released := blockNames(t, a, a.Image(), "first.bin")
	_, earlier := w.entries("upload", transfer.DefaultBlockDir)
	w.deletes.hold()
	if err := fa.Remove("first.bin"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := a.SyncDirty(ctxT(t), []string{"first.bin"}); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the deleting pass waited for its block deletes")
	}
	await(t, w.deleteAsked, 1, "parked block deletes")

	writeFile(t, fa, "again.bin", content)
	go func() { _, err := a.SyncDirty(ctxT(t), []string{"again.bin"}); done <- err }()
	for deadline := time.Now().Add(20 * time.Second); reg.Counter("core.tail.reupload_joins").Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the re-adding pass never joined the tail")
		}
	}
	w.deletes.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	recordPlacements(t, a)

	deleted, deletedAt := w.entries("delete", transfer.DefaultBlockDir)
	uploaded, uploadedAt := w.entries("upload", transfer.DefaultBlockDir)
	for _, name := range released {
		i := slices.Index(deleted, name)
		if i < 0 {
			t.Errorf("released block %s was never deleted", name)
			continue
		}
		for j, up := range uploaded[len(earlier):] {
			if at := uploadedAt[len(earlier)+j]; up == name && at < deletedAt[i] {
				t.Errorf("block %s uploaded again before its delete landed", name)
			}
		}
	}
	img := a.Image()
	auditBlocks(t, r, img)
	auditNamed(t, r, img)
	syncOK(t, b)
	requireFolders(t, map[string]string{"again.bin": content}, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
}

// A crash in the hold's tail, after the pass returned and moved v_o but
// before the released blocks were deleted, leaves the intent committed
// with the released segments journaled; the restarted device's Recover
// deletes their blocks and clears the intent.
func TestCrashInTheTailLeavesTheReleasedBlocksToRecover(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "f.bin", randContent(42, 3*4096))
	syncOK(t, a)
	recordPlacements(t, a)
	oldSegs := segmentsOf(t, a.Image(), "f.bin")
	released := 0
	for _, seg := range oldSegs {
		released += len(seg.Blocks)
	}

	a.ArmCrash(CrashInTail, 0)
	rewritten := randContent(43, 3*4096)
	writeFile(t, fa, "f.bin", rewritten)
	if rep := syncOK(t, a); rep.LocalChanges != 1 {
		t.Fatalf("the overwrite committed %d changes, want 1", rep.LocalChanges)
	}
	settle(t, a)
	in := a.journal.Active()
	if len(in) != 1 || in[0].State != journal.StateCommitted || len(in[0].Released) != len(oldSegs) {
		t.Fatalf("journal after the crashed tail: %+v, want the pass's intent, committed, naming its %d released segments", in, len(oldSegs))
	}
	for _, seg := range oldSegs {
		for _, b := range seg.Blocks {
			if _, err := cloudsim.NewDirect(r.stores[b.CloudID[1]-'0']).Download(ctxT(t), a.engine.BlockPath(seg.ID, b.BlockID)); err != nil {
				t.Fatalf("released block %d of %s went with a crashed tail: %v", b.BlockID, seg.ID, err)
			}
		}
	}

	// The crash cut the overwrite's upload short at its commit: what it
	// landed that the commit does not name is Recover's to reclaim too.
	unnamed := 0
	for _, seg := range segmentsOf(t, a.Image(), "f.bin") {
		for _, st := range r.stores {
			for _, p := range st.Paths() {
				if id, b, ok := meta.ParseBlockName(strings.TrimPrefix(p, transfer.DefaultBlockDir+"/")); ok && id == seg.ID && !seg.HasBlock(b, st.Name()) {
					unnamed++
				}
			}
		}
	}

	a2 := restartDevice(t, r, "alpha", fa)
	if restored, _, err := a2.LoadState(); err != nil || !restored {
		t.Fatalf("LoadState: restored %v, %v", restored, err)
	}
	rep, err := a2.Recover(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphansReclaimed != released+unnamed {
		t.Errorf("recovery reclaimed %d blocks, want the %d released and the %d unnamed", rep.OrphansReclaimed, released, unnamed)
	}
	if n := a2.journal.Len(); n != 0 {
		t.Errorf("%d journal intents after recovery, want 0", n)
	}
	img := a2.Image()
	auditBlocks(t, r, img)
	auditNamed(t, r, img)
	b, fb := r.device(t, "beta")
	syncOK(t, b)
	requireFolders(t, map[string]string{"f.bin": rewritten}, map[string]*localfs.Mem{"beta": fb})
}

// A cloud off the cursor — its stamp names no commit — is among the
// first quorum of clouds to answer the stamp poll: the other two wait
// until a base upload has started. The commit starts that cloud's
// catch-up from the base but does not wait for it: with the base upload
// parked, the pass returns on a quorum of clouds on the cursor. The hold's tail waits
// for the base before the release deletes a flag. The next pass's
// hold, won beside that tail, polls the stamps only once the base has
// landed, finds the cloud on the cursor and sends it no base again.
func TestCommitLeavesAnOffCursorCatchUpToTheTail(t *testing.T) {
	r, w, a, fa, reg := commitBesideParkedCatchUp(t)
	caughtUp := a.store.Stamp()
	_, flagsBefore := w.entries("delete", qlock.DefaultLockDir)
	_, flagsUp := w.entries("upload", qlock.DefaultLockDir)
	_, polls := w.entries("download", deltasync.DefaultDir)

	writeFile(t, fa, "last.txt", "the commit after")
	done := make(chan error, 1)
	go func() { _, err := a.SyncOnce(ctxT(t)); done <- err }()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, up := w.entries("upload", qlock.DefaultLockDir); len(up) > len(flagsUp) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the next pass never contended for the lock")
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a poll that should not start
	if _, now := w.entries("download", deltasync.DefaultDir); len(now) != len(polls) {
		t.Error("the next hold polled the stamps while the last commit's catch-up was in flight")
	}
	if _, now := w.entries("delete", qlock.DefaultLockDir); len(now) != len(flagsBefore) {
		t.Error("a flag was deleted while the last commit's catch-up was in flight")
	}
	w.bases.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	settle(t, a)
	_, bases := w.entries("upload", deltasync.DefaultDir+"/base")
	_, flags := w.entries("delete", qlock.DefaultLockDir)
	if len(bases) != 1 {
		t.Errorf("%d base uploads landed, want the one catch-up", len(bases))
	}
	if len(flags) == len(flagsBefore) {
		t.Fatal("the holds deleted no flag")
	}
	for _, at := range flags[len(flagsBefore):] {
		if len(bases) > 0 && at < bases[0] {
			t.Error("a flag was deleted before the off-cursor cloud's base landed")
		}
	}
	if got := storeStamp(t, r.stores[2]); got != caughtUp && got != a.store.Stamp() {
		t.Errorf("c2 stands at %+v, want the commit that caught it up (%+v) or the last (%+v)", got, caughtUp, a.store.Stamp())
	}
	if n := reg.Counter("deltasync.commit.catchups.base").Value(); n != 1 {
		t.Errorf("deltasync.commit.catchups.base = %d, want 1", n)
	}
	b, fb := r.device(t, "beta")
	syncOK(t, b)
	requireFolders(t, map[string]string{
		"warm.txt": randContent(45, 100), "next.txt": "committed while c2 is caught up", "last.txt": "the commit after",
	}, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
}

// commitBesideParkedCatchUp sets up a device whose commit pass has
// returned while a base upload to the off-cursor cloud c2 stays parked
// (w.bases), so the hold's tail waits on it before the release.
func commitBesideParkedCatchUp(t *testing.T) (*rig, *tailWatch, *Client, *localfs.Mem, *obs.Registry) {
	t.Helper()
	r := newRig(5)
	w := newTailWatch("c2", "c3", "c4")
	a, fa, reg := r.tailDevice(t, "alpha", w, vclock.Real{})
	for i := 0; i < 2; i++ {
		writeFile(t, fa, "warm.txt", randContent(int64(44+i), 100))
		syncOK(t, a)
		settle(t, a)
		// A pass decides on the first quorum of stamp answers; the rest
		// of its poll may still be in flight, and would reach the clouds
		// among the next hold's requests.
		a.store.JoinPoll(ctxT(t))
	}
	// A stamp of no commit, at a version no commit has: off the cursor,
	// and no rival of any commit the other answers name.
	stamp := meta.VersionStamp{Device: "alpha"}
	data, err := stamp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := cloudsim.NewDirect(r.stores[2]).Upload(ctxT(t), versionPath, data); err != nil {
		t.Fatal(err)
	}

	w.bases.hold()
	w.holdLate.Store(true)
	writeFile(t, fa, "next.txt", "committed while c2 is caught up")
	done := make(chan error, 1)
	go func() { _, err := a.SyncOnce(ctxT(t)); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the pass waited for the off-cursor cloud's base upload")
	}
	w.holdLate.Store(false)
	a.store.JoinPoll(ctxT(t))
	await(t, w.baseAsked, 1, "parked base uploads")
	return r, w, a, fa, reg
}

// The hold whose tail waits on its commit's catch-up keeps its flags
// while the device's next pass contends beside that tail: a second
// device's flags stand on every cloud, so each round of the next pass
// loses and withdraws, and no withdraw deletes a flag of the hold still
// to be released. Once the second device's flags go and the base lands,
// the next pass commits, and every flag of either hold goes.
func TestWithdrawBesideTheTailKeepsTheHoldsFlags(t *testing.T) {
	r, w, a, fa, reg := commitBesideParkedCatchUp(t)
	held := ownFlags(r, "alpha")
	if len(held) == 0 {
		t.Fatal("the hold in the tail has no flag")
	}
	foreign := qlock.DefaultLockDir + "/lock_beta_1.1"
	for _, st := range r.stores {
		if err := cloudsim.NewDirect(st).Upload(ctxT(t), foreign, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, flagsGone := w.entries("delete", qlock.DefaultLockDir)
	writeFile(t, fa, "last.txt", "the commit after")
	done := make(chan error, 1)
	go func() { _, err := a.SyncOnce(ctxT(t)); done <- err }()
	// The first round asks the three clouds of the last quorum, meets
	// beta's flag on each, asks the other two, and withdraws its five.
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, gone := w.entries("delete", qlock.DefaultLockDir); reg.Counter("qlock.backoffs").Value() > 0 && len(gone) >= len(flagsGone)+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the next pass never withdrew")
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a delete that should not come
	now := ownFlags(r, "alpha")
	for _, f := range held {
		if !slices.Contains(now, f) {
			t.Errorf("flag %s of the hold in the tail went with the next pass's withdraw", f)
		}
	}
	for _, st := range r.stores {
		if err := cloudsim.NewDirect(st).Delete(ctxT(t), foreign); err != nil {
			t.Fatal(err)
		}
	}
	w.bases.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	settle(t, a)
	if left := ownFlags(r, "alpha"); len(left) != 0 {
		t.Errorf("flags left after both holds: %v", left)
	}
	b, fb := r.device(t, "beta")
	syncOK(t, b)
	requireFolders(t, map[string]string{
		"warm.txt": randContent(45, 100), "next.txt": "committed while c2 is caught up", "last.txt": "the commit after",
	}, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
}

// ownFlags lists the cloud/path of every lock flag of device.
func ownFlags(r *rig, device string) (flags []string) {
	for _, st := range r.stores {
		for _, p := range st.Paths() {
			if strings.HasPrefix(p, qlock.DefaultLockDir+"/lock_"+device+"_") {
				flags = append(flags, st.Name()+"/"+p)
			}
		}
	}
	return flags
}

// Block deletes that releaseTimeout cuts short leave the pass's intent
// committed, its released segments journaled, as a crash in the tail
// would. The device then adds the same content again in a pass that
// crashes before its commit: the restarted device's Recover leaves the
// re-added segments' blocks to the re-adding intent, which adopts one
// copy of each block and reclaims the others the cut deletes left, so
// the resumed pass uploads nothing, the clouds hold only what the image
// names, and a second device reads the file whole.
func TestCutTailDeletesLeaveTheIntentToRecover(t *testing.T) {
	r := newRig(5)
	w := newTailWatch("none")
	// On a world clock, the held deletes wait out the bound in virtual
	// time.
	a, fa, reg := r.tailDevice(t, "alpha", w, vclock.NewWorld(time.Unix(0, 0)))
	content := randContent(46, 3*4096)
	writeFile(t, fa, "first.bin", content)
	syncOK(t, a)
	recordPlacements(t, a)
	released := blockNames(t, a, a.Image(), "first.bin")
	segs := segmentsOf(t, a.Image(), "first.bin")

	w.deletes.hold()
	if err := fa.Remove("first.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SyncDirty(ctxT(t), []string{"first.bin"}); err != nil {
		t.Fatal(err)
	}
	settle(t, a) // joins the tail, whose deletes the bound cuts
	if n := reg.Counter("core.tail.deletes_cut").Value(); n != 1 {
		t.Fatalf("core.tail.deletes_cut = %d, want 1", n)
	}
	in := a.journal.Active()
	if len(in) != 1 || in[0].State != journal.StateCommitted || len(in[0].Released) != len(segs) {
		t.Fatalf("journal after the cut deletes: %+v, want the pass's intent, committed, naming its %d released segments", in, len(segs))
	}
	w.deletes.open()

	writeFile(t, fa, "again.bin", content)
	a.ArmCrash(CrashPreCommit, 0)
	if _, err := a.SyncDirty(ctxT(t), []string{"again.bin"}); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("the re-adding pass: %v, want the injected crash", err)
	}
	a2 := restartDevice(t, r, "alpha", fa)
	if restored, _, err := a2.LoadState(); err != nil || !restored {
		t.Fatalf("LoadState: restored %v, %v", restored, err)
	}
	rep, err := a2.Recover(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksResumed < len(released) {
		t.Errorf("recovery resumed %d blocks, want the %d re-added", rep.BlocksResumed, len(released))
	}
	res := syncOK(t, a2)
	if res.Upload.SegmentsUploaded != 0 {
		t.Errorf("the resumed pass uploaded %d segments, want none", res.Upload.SegmentsUploaded)
	}
	settle(t, a2)
	img := a2.Image()
	auditBlocks(t, r, img)
	auditNamed(t, r, img)
	b, fb := r.device(t, "beta")
	syncOK(t, b)
	requireFolders(t, map[string]string{"again.bin": content}, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
}
