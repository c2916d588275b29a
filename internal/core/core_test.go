package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/qlock"
)

// rig is a multi-device test fixture over shared direct clouds.
type rig struct {
	stores []*cloudsim.Store
	flaky  map[string][]*cloudsim.Flaky // device -> per-cloud connectors
	regs   map[string]*obs.Registry     // device -> its metrics registry
}

func newRig(nClouds int) *rig {
	r := &rig{flaky: make(map[string][]*cloudsim.Flaky), regs: make(map[string]*obs.Registry)}
	for i := 0; i < nClouds; i++ {
		r.stores = append(r.stores, cloudsim.NewStore(fmt.Sprintf("c%d", i), 0))
	}
	return r
}

// device creates a client for the named device with its own folder.
func (r *rig) device(t testing.TB, name string) (*Client, *localfs.Mem) {
	t.Helper()
	folder := localfs.NewMem()
	return r.deviceOn(t, name, folder), folder
}

// deviceOn is device over a folder of the caller's making.
func (r *rig) deviceOn(t testing.TB, name string, folder localfs.Folder) *Client {
	t.Helper()
	var clouds []cloud.Interface
	var flakies []*cloudsim.Flaky
	for i, st := range r.stores {
		f := cloudsim.NewFlaky(cloudsim.NewDirect(st), 0, int64(len(name)*10+i))
		flakies = append(flakies, f)
		clouds = append(clouds, f)
	}
	r.flaky[name] = flakies
	reg := obs.NewRegistry()
	r.regs[name] = reg
	c, err := New(clouds, folder, Config{
		Device:     name,
		Passphrase: "shared-secret",
		Theta:      4096, // small θ so tests exercise multi-segment files
		LockExpiry: 500 * time.Millisecond,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ctxT(t testing.TB) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func writeFile(t *testing.T, f *localfs.Mem, path, content string) {
	t.Helper()
	if err := f.WriteFile(path, []byte(content), time.Now()); err != nil {
		t.Fatal(err)
	}
}

func randContent(seed int64, n int) string {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return string(b)
}

func syncOK(t *testing.T, c *Client) SyncReport {
	t.Helper()
	rep, err := c.SyncOnce(ctxT(t))
	if err != nil {
		t.Fatalf("%s: SyncOnce: %v", c.Device(), err)
	}
	return rep
}

func TestSingleDeviceUploadAndState(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "docs/hello.txt", "hello unidrive")
	rep := syncOK(t, a)
	if rep.LocalChanges != 1 {
		t.Fatalf("LocalChanges = %d, want 1", rep.LocalChanges)
	}
	if rep.Version != 1 {
		t.Fatalf("Version = %d, want 1", rep.Version)
	}
	img := a.Image()
	if img.Lookup("docs/hello.txt").Current() == nil {
		t.Fatal("file missing from committed image")
	}
	// Blocks landed on the clouds.
	total := 0
	for _, st := range r.stores {
		total += st.FileCount()
	}
	if total == 0 {
		t.Fatal("no blocks stored on any cloud")
	}
	// Idle second pass commits nothing.
	rep = syncOK(t, a)
	if rep.LocalChanges != 0 || rep.CloudChanges != 0 {
		t.Fatalf("idle pass did work: %+v", rep)
	}
}

func TestTwoDeviceSyncPropagates(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")

	content := randContent(1, 20_000) // multiple 4KB segments
	writeFile(t, fa, "report.bin", content)
	syncOK(t, a)

	rep := syncOK(t, b)
	if rep.CloudChanges != 1 {
		t.Fatalf("beta applied %d cloud changes, want 1", rep.CloudChanges)
	}
	got, err := fb.ReadFile("report.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("propagated content differs")
	}
	// And beta does not bounce the file back as a local change.
	rep = syncOK(t, b)
	if rep.LocalChanges != 0 {
		t.Fatal("beta re-committed a file it downloaded")
	}
}

func TestEditPropagation(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")

	writeFile(t, fa, "note.txt", "v1")
	syncOK(t, a)
	syncOK(t, b)

	writeFile(t, fa, "note.txt", "v2 edited")
	syncOK(t, a)
	syncOK(t, b)
	got, err := fb.ReadFile("note.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2 edited" {
		t.Fatalf("beta sees %q", got)
	}
}

func TestDeletePropagatesAndGCsBlocks(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")

	writeFile(t, fa, "temp.bin", randContent(2, 10_000))
	syncOK(t, a)
	syncOK(t, b)
	if _, err := fb.ReadFile("temp.bin"); err != nil {
		t.Fatal("file did not reach beta")
	}
	blocksBefore := 0
	for _, st := range r.stores {
		blocksBefore += st.FileCount()
	}

	if err := fa.Remove("temp.bin"); err != nil {
		t.Fatal(err)
	}
	syncOK(t, a)
	syncOK(t, b)
	if _, err := fb.ReadFile("temp.bin"); err == nil {
		t.Fatal("delete did not propagate to beta")
	}
	// The segment's blocks were garbage-collected by alpha.
	blocksAfter := 0
	for _, st := range r.stores {
		blocksAfter += st.FileCount()
	}
	if blocksAfter >= blocksBefore {
		t.Fatalf("blocks not GCed: %d -> %d", blocksBefore, blocksAfter)
	}
}

func TestDeduplicationSkipsReupload(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")

	content := randContent(3, 8_000)
	writeFile(t, fa, "one.bin", content)
	rep := syncOK(t, a)
	if rep.Upload.SegmentsUploaded == 0 {
		t.Fatal("first sync uploaded nothing")
	}
	// Same content under a different name: all segments dedup.
	writeFile(t, fa, "two.bin", content)
	rep = syncOK(t, a)
	if rep.LocalChanges != 1 {
		t.Fatalf("LocalChanges = %d, want 1", rep.LocalChanges)
	}
	if rep.Upload.SegmentsUploaded != 0 {
		t.Fatalf("dedup failed: %d segments re-uploaded", rep.Upload.SegmentsUploaded)
	}
	// Deleting one copy keeps the shared segments alive.
	if err := fa.Remove("one.bin"); err != nil {
		t.Fatal(err)
	}
	syncOK(t, a)
	got, err := a.Get(ctxT(t), "two.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("shared segments lost after deleting one referencing file")
	}
}

func TestConflictRetainsBothVersions(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")

	writeFile(t, fa, "shared.txt", "base")
	syncOK(t, a)
	syncOK(t, b)

	// Concurrent divergent edits.
	writeFile(t, fa, "shared.txt", "alpha version")
	writeFile(t, fb, "shared.txt", "beta version!")
	syncOK(t, a) // alpha commits first
	rep := syncOK(t, b)
	if len(rep.Conflicts) != 1 {
		t.Fatalf("beta conflicts = %v, want 1", rep.Conflicts)
	}
	copyPath := rep.Conflicts[0]
	if !strings.Contains(copyPath, "conflicted copy from beta") {
		t.Fatalf("conflict copy path %q", copyPath)
	}
	// Beta's folder now holds alpha's version at the original path
	// and its own under the conflict name.
	got, err := fb.ReadFile("shared.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "alpha version" {
		t.Fatalf("original path holds %q, want alpha's version", got)
	}
	got, err = fb.ReadFile(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "beta version!" {
		t.Fatalf("conflict copy holds %q", got)
	}
	// Alpha learns about the conflict copy on its next sync.
	syncOK(t, a)
	got, err = fa.ReadFile(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "beta version!" {
		t.Fatal("conflict copy did not propagate to alpha")
	}
}

func TestIdenticalConcurrentEditsNoConflict(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")

	writeFile(t, fa, "same.txt", "base")
	syncOK(t, a)
	syncOK(t, b)
	writeFile(t, fa, "same.txt", "identical edit")
	writeFile(t, fb, "same.txt", "identical edit")
	syncOK(t, a)
	rep := syncOK(t, b)
	if len(rep.Conflicts) != 0 {
		t.Fatalf("identical edits conflicted: %v", rep.Conflicts)
	}
}

func TestDeleteVersusEditKeepsEdit(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")

	writeFile(t, fa, "contested.txt", "base")
	syncOK(t, a)
	syncOK(t, b)

	writeFile(t, fa, "contested.txt", "alpha edit")
	if err := fb.Remove("contested.txt"); err != nil {
		t.Fatal(err)
	}
	syncOK(t, a) // edit commits first
	syncOK(t, b) // beta's delete is dropped; alpha's edit restored
	got, err := fb.ReadFile("contested.txt")
	if err != nil {
		t.Fatalf("edit lost to delete: %v", err)
	}
	if string(got) != "alpha edit" {
		t.Fatalf("beta holds %q", got)
	}
}

func TestSyncSurvivesMinorityOutage(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")

	// Two of five clouds down for both devices.
	for _, dev := range []string{"alpha", "beta"} {
		r.flaky[dev][1].SetDown(true)
		r.flaky[dev][3].SetDown(true)
	}
	content := randContent(4, 12_000)
	writeFile(t, fa, "resilient.bin", content)
	syncOK(t, a)
	syncOK(t, b)
	got, err := fb.ReadFile("resilient.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("content corrupted under outage")
	}
}

func TestRecoveryAfterOutageHeals(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")

	r.flaky["alpha"][0].SetDown(true)
	writeFile(t, fa, "f1.bin", randContent(5, 6000))
	syncOK(t, a)
	if r.stores[0].FileCount() != 0 {
		t.Fatal("down cloud received data")
	}
	// Cloud recovers; the next commit repairs its metadata.
	r.flaky["alpha"][0].SetDown(false)
	writeFile(t, fa, "f2.bin", randContent(6, 6000))
	syncOK(t, a)
	if r.stores[0].FileCount() == 0 {
		t.Fatal("recovered cloud not repaired on next commit")
	}
}

func TestGetReadsDirectlyFromClouds(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	content := randContent(7, 9000)
	writeFile(t, fa, "direct.bin", content)
	syncOK(t, a)

	// A different device reads without a folder sync.
	b, _ := r.device(t, "beta")
	got, err := b.Get(ctxT(t), "direct.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("Get returned wrong content")
	}
	if _, err := b.Get(ctxT(t), "nope.bin"); err == nil {
		t.Fatal("Get of missing path succeeded")
	}
}

func TestNewValidation(t *testing.T) {
	r := newRig(2)
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	folder := localfs.NewMem()
	if _, err := New(nil, folder, Config{Device: "d", Passphrase: "p"}); err == nil {
		t.Fatal("no clouds accepted")
	}
	if _, err := New(clouds, folder, Config{Passphrase: "p"}); err == nil {
		t.Fatal("empty device accepted")
	}
	if _, err := New(clouds, folder, Config{Device: "d"}); err == nil {
		t.Fatal("empty passphrase accepted")
	}
}

func TestConfigDefaultsMatchPaper(t *testing.T) {
	r := newRig(5)
	a, _ := r.device(t, "alpha")
	p := a.Params()
	if p.N != 5 || p.K != 3 || p.Kr != 3 || p.Ks != 2 {
		t.Fatalf("default params = %+v, want the paper's N=5 K=3 Kr=3 Ks=2", p)
	}
}

func TestRunLoopSyncsPeriodically(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")
	a.cfg.SyncInterval = 20 * time.Millisecond
	b.cfg.SyncInterval = 20 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{}, 2)
	go func() { a.RunLoop(ctx, nil); done <- struct{}{} }()
	go func() { b.RunLoop(ctx, nil); done <- struct{}{} }()

	writeFile(t, fa, "looped.txt", "via background loop")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if got, err := fb.ReadFile("looped.txt"); err == nil && string(got) == "via background loop" {
			cancel()
			<-done
			<-done
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("background loops never propagated the file")
}

func TestAddCloudRebalances(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	content := randContent(8, 10_000)
	writeFile(t, fa, "data.bin", content)
	syncOK(t, a)

	// Add a sixth cloud.
	newStore := cloudsim.NewStore("c5", 0)
	var clouds []cloud.Interface
	for _, st := range append(r.stores, newStore) {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	if err := a.SetClouds(ctxT(t), clouds); err != nil {
		t.Fatal(err)
	}
	if a.Params().N != 6 {
		t.Fatalf("params.N = %d after add", a.Params().N)
	}
	if newStore.FileCount() == 0 {
		t.Fatal("new cloud received no blocks")
	}
	// Content still reconstructable via the new placement.
	got, err := a.Get(ctxT(t), "data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("content lost after adding a cloud")
	}
}

func TestRemoveCloudRebalances(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	content := randContent(9, 10_000)
	writeFile(t, fa, "data.bin", content)
	syncOK(t, a)

	// Drop cloud c4 entirely.
	var clouds []cloud.Interface
	for _, st := range r.stores[:4] {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	if err := a.SetClouds(ctxT(t), clouds); err != nil {
		t.Fatal(err)
	}
	if a.Params().N != 4 {
		t.Fatalf("params.N = %d after remove", a.Params().N)
	}
	got, err := a.Get(ctxT(t), "data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(content)) {
		t.Fatal("content lost after removing a cloud")
	}
	// The image must no longer reference the removed cloud.
	img := a.Image()
	for _, seg := range img.AllSegments() {
		for _, b := range seg.Blocks {
			if b.CloudID == "c4" {
				t.Fatalf("segment %s still references removed cloud", seg.ID)
			}
		}
	}
	// And another device configured with the remaining clouds can
	// still read everything.
	b, fb := func() (*Client, *localfs.Mem) {
		folder := localfs.NewMem()
		c, err := New(clouds, folder, Config{Device: "beta", Passphrase: "shared-secret", Theta: 4096})
		if err != nil {
			t.Fatal(err)
		}
		return c, folder
	}()
	syncOK(t, b)
	gotB, err := fb.ReadFile("data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, []byte(content)) {
		t.Fatal("second device cannot read after rebalance")
	}
}

// TestRemoveCloudDropsFairPlacedReferences pins a metadata-hygiene
// regression: when the surviving clouds already hold exactly their
// fair shares, the movement plan for a segment is empty — but the
// removed cloud's block references must still be scrubbed from the
// committed image, or every later read and GC pass keeps consulting
// a cloud that no longer exists.
func TestRemoveCloudDropsFairPlacedReferences(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "data.bin", randContent(11, 10_000))
	syncOK(t, a)

	// Force the worst-case placement: block b on cloud b mod 5.
	// Dropping c4 then leaves every survivor exactly at its fair
	// share, so PlanRebalance has nothing to move.
	img := a.Image()
	names := []string{"c0", "c1", "c2", "c3", "c4"}
	var rels []*meta.Change
	for _, segID := range img.SegmentIDs() {
		cur, _ := img.Segment(segID)
		updated := cur.Clone()
		updated.Blocks = nil
		for i := 0; i < 9; i++ {
			updated.AddBlock(i, names[i%5])
		}
		rels = append(rels, &meta.Change{
			Type: meta.ChangeRelocate, Path: segID,
			Segments: []*meta.Segment{updated},
		})
	}
	if _, err := a.store.Commit(ctxT(t), rels); err != nil {
		t.Fatal(err)
	}

	var clouds []cloud.Interface
	for _, st := range r.stores[:4] {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	if err := a.SetClouds(ctxT(t), clouds); err != nil {
		t.Fatal(err)
	}
	for _, seg := range a.Image().AllSegments() {
		for _, b := range seg.Blocks {
			if b.CloudID == "c4" {
				t.Fatalf("segment %s still references the removed cloud", seg.ID)
			}
		}
	}
}

func TestThreeDeviceConvergence(t *testing.T) {
	r := newRig(5)
	devices := []string{"alpha", "beta", "gamma"}
	clients := make(map[string]*Client)
	folders := make(map[string]*localfs.Mem)
	for _, d := range devices {
		clients[d], folders[d] = r.device(t, d)
	}
	// Each device contributes distinct files.
	for i, d := range devices {
		writeFile(t, folders[d], fmt.Sprintf("from-%s.bin", d), randContent(int64(10+i), 5000))
	}
	// A few rounds of everyone syncing.
	for round := 0; round < 3; round++ {
		for _, d := range devices {
			syncOK(t, clients[d])
		}
	}
	// Every folder holds every file with identical content.
	for _, d := range devices {
		for _, src := range devices {
			path := fmt.Sprintf("from-%s.bin", src)
			got, err := folders[d].ReadFile(path)
			if err != nil {
				t.Fatalf("%s missing %s: %v", d, path, err)
			}
			want, err := folders[src].ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s has divergent content for %s", d, path)
			}
		}
	}
	// All devices report the same metadata version.
	v := clients["alpha"].Image().Version
	for _, d := range devices[1:] {
		if clients[d].Image().Version != v {
			t.Fatalf("device %s at version %d, alpha at %d", d, clients[d].Image().Version, v)
		}
	}
}

// Interface compliance of the qlock constant used in configs.
var _ = qlock.DefaultExpiry
