package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
)

// restartDevice builds a new client over the SAME folder and stores,
// simulating a process restart. Its metrics start from zero in a fresh
// registry, which replaces the device's entry in r.regs.
func restartDevice(t *testing.T, r *rig, name string, folder localfs.Folder) *Client {
	t.Helper()
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	reg := obs.NewRegistry()
	r.regs[name] = reg
	c, err := New(clouds, folder, Config{
		Device: name, Passphrase: "shared-secret", Theta: 4096,
		LockExpiry: 500 * time.Millisecond, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRestartResumesWithoutRecommit(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "stable.txt", "unchanged across restart")
	syncOK(t, a)

	// Restart: a fresh client over the same folder restores state and
	// must not re-commit the unchanged file.
	a2 := restartDevice(t, r, "alpha", fa)
	restored, _, err := a2.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("no state restored after restart")
	}
	rep := syncOK(t, a2)
	if rep.LocalChanges != 0 {
		t.Fatalf("restarted client re-committed %d changes", rep.LocalChanges)
	}
	if a2.Image().Version != 1 {
		t.Fatalf("image version %d after restart, want 1", a2.Image().Version)
	}
}

// TestReceiverRestartDoesNotRecommit pins the receiver side of the
// restart contract: a device that APPLIED files from the clouds (as
// opposed to committing its own) saves its state before the next scan
// folds the applied writes into the baseline. Restarting from that
// state must not re-detect the downloads as local edits.
func TestReceiverRestartDoesNotRecommit(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")
	writeFile(t, fa, "one.txt", "from alpha")
	writeFile(t, fa, "two.txt", "also from alpha")
	syncOK(t, a)
	syncOK(t, b) // beta applies both, saves state, exits cleanly

	b2 := restartDevice(t, r, "beta", fb)
	if restored, _, err := b2.LoadState(); err != nil || !restored {
		t.Fatalf("restored=%v err=%v", restored, err)
	}
	rep := syncOK(t, b2)
	if rep.LocalChanges != 0 {
		t.Fatalf("restarted receiver re-committed %d changes", rep.LocalChanges)
	}
	// Deletions applied from the clouds restart just as quietly.
	if err := fa.Remove("two.txt"); err != nil {
		t.Fatal(err)
	}
	syncOK(t, a)
	syncOK(t, b2)
	b3 := restartDevice(t, r, "beta", fb)
	if restored, _, err := b3.LoadState(); err != nil || !restored {
		t.Fatalf("restored=%v err=%v", restored, err)
	}
	rep = syncOK(t, b3)
	if rep.LocalChanges != 0 {
		t.Fatalf("restart after applied deletion re-committed %d changes", rep.LocalChanges)
	}
}

func TestRestartDetectsOfflineEdits(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "doc.txt", "v1")
	writeFile(t, fa, "other.txt", "constant")
	syncOK(t, a)

	// The process dies; the user edits doc.txt while UniDrive is not
	// running; the client restarts.
	writeFile(t, fa, "doc.txt", "v2 written while offline")
	a2 := restartDevice(t, r, "alpha", fa)
	if restored, _, _ := a2.LoadState(); !restored {
		t.Fatal("state not restored")
	}
	rep := syncOK(t, a2)
	if rep.LocalChanges != 1 {
		t.Fatalf("offline edit: %d changes committed, want exactly 1", rep.LocalChanges)
	}
	// Propagates normally.
	b, fb := r.device(t, "beta")
	syncOK(t, b)
	got, err := fb.ReadFile("doc.txt")
	if err != nil || !bytes.Equal(got, []byte("v2 written while offline")) {
		t.Fatalf("beta sees %q, %v", got, err)
	}
}

func TestLoadStateRejectsForeignDevice(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "f.txt", "x")
	syncOK(t, a)
	// A different device name must not adopt alpha's state.
	b := restartDevice(t, r, "beta", fa)
	restored, reason, err := b.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if restored {
		t.Fatal("beta adopted alpha's state file")
	}
	if reason != ColdStartForeignDevice {
		t.Fatalf("cold-start reason %q, want %q", reason, ColdStartForeignDevice)
	}
}

func TestLoadStateColdStartOnMissingOrCorrupt(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	if restored, reason, err := a.LoadState(); err != nil || restored || reason != ColdStartFresh {
		t.Fatalf("fresh folder: restored=%v reason=%q err=%v", restored, reason, err)
	}
	if err := fa.WriteFile(statePath, []byte("{corrupt"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if restored, reason, err := a.LoadState(); err != nil || restored || reason != ColdStartCorrupt {
		t.Fatalf("corrupt state: restored=%v reason=%q err=%v", restored, reason, err)
	}
}

// TestColdStartsAreCounted pins satellite requirement: a cold start
// must surface in the obs tables, not just in a return value the
// caller may ignore.
func TestColdStartsAreCounted(t *testing.T) {
	r := newRig(5)
	folder := localfs.NewMem()
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	reg := obs.NewRegistry()
	a, err := New(clouds, folder, Config{
		Device: "alpha", Passphrase: "shared-secret", Theta: 4096,
		LockExpiry: 500 * time.Millisecond, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.LoadState(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("core.coldstart." + ColdStartFresh).Value(); got != 1 {
		t.Fatalf("core.coldstart.fresh = %d, want 1", got)
	}
	if err := folder.WriteFile(statePath, []byte("not json"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.LoadState(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("core.coldstart." + ColdStartCorrupt).Value(); got != 1 {
		t.Fatalf("core.coldstart.corrupt = %d, want 1", got)
	}
	// A restored state bumps nothing further.
	writeFile(t, folder, "f.txt", "x")
	syncOK(t, a)
	if restored, _, err := a.LoadState(); err != nil || !restored {
		t.Fatalf("restored=%v err=%v", restored, err)
	}
	total := int64(0)
	for _, reason := range []string{ColdStartFresh, ColdStartCorrupt, ColdStartLegacyFormat, ColdStartForeignDevice, ColdStartCorruptImage} {
		total += reg.Counter("core.coldstart." + reason).Value()
	}
	if total != 2 {
		t.Fatalf("cold-start counters total %d, want 2", total)
	}
}

func TestStateFileInvisibleToScanner(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	writeFile(t, fa, "f.txt", "x")
	syncOK(t, a) // saves state into the folder
	if _, err := fa.ReadFile(statePath); err != nil {
		t.Fatal("state file not written")
	}
	rep := syncOK(t, a)
	if rep.LocalChanges != 0 {
		t.Fatal("the state file leaked into the ChangedFileList")
	}
	// And it never reaches the clouds.
	img := a.Image()
	if img.Lookup(statePath) != nil {
		t.Fatal("state file committed to metadata")
	}
}

// sameBaseline compares scanner baselines entry by entry (ModTime by
// instant: a persisted time loses its monotonic reading and location).
func sameBaseline(a, b []localfs.FileInfo) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Path != b[i].Path || a[i].Size != b[i].Size || !a[i].ModTime.Equal(b[i].ModTime) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestRestartIsExactAfterDeltaCheckpoints pins restart exactness over
// the base + delta log: after a bulk commit, a run of single-file
// commits, an apply from a second device and a delete, a fresh client
// restores the byte-identical image and an equal scanner baseline, and
// its next full pass finds nothing to re-chunk, commit or upload.
func TestRestartIsExactAfterDeltaCheckpoints(t *testing.T) {
	const bulk, singles = 2000, 12
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	b, fb := r.device(t, "beta")
	for i := 0; i < bulk; i++ {
		writeFile(t, fa, fmt.Sprintf("dir%02d/f%04d.txt", i%20, i), fmt.Sprintf("content of file %d", i))
	}
	syncOK(t, a)
	for i := 0; i < singles; i++ {
		writeFile(t, fa, fmt.Sprintf("single%02d.txt", i), fmt.Sprintf("single %d", i))
		if rep := syncOK(t, a); rep.LocalChanges != 1 {
			t.Fatalf("single %d: %d changes committed", i, rep.LocalChanges)
		}
	}
	syncOK(t, b)
	writeFile(t, fb, "from-beta.txt", "beta's file")
	syncOK(t, b)
	if rep := syncOK(t, a); rep.CloudChanges != 1 {
		t.Fatalf("alpha applied %d cloud changes, want 1", rep.CloudChanges)
	}
	if err := fa.Remove("dir03/f0003.txt"); err != nil {
		t.Fatal(err)
	}
	syncOK(t, a)

	// One base (the bulk pass) and a delta for every pass after it.
	regA := r.regs["alpha"]
	if got := regA.Counter("core.checkpoint.compactions").Value(); got != 1 {
		t.Fatalf("core.checkpoint.compactions = %d, want 1", got)
	}
	if got := regA.Counter("core.checkpoint.deltas").Value(); got != singles+2 {
		t.Fatalf("core.checkpoint.deltas = %d, want %d", got, singles+2)
	}
	wantImage, err := a.Image().Encode()
	if err != nil {
		t.Fatal(err)
	}
	wantBaseline := a.scanner.Baseline()

	a2 := restartDevice(t, r, "alpha", fa)
	if restored, reason, err := a2.LoadState(); err != nil || !restored {
		t.Fatalf("restored=%v reason=%q err=%v", restored, reason, err)
	}
	gotImage, err := a2.Image().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotImage, wantImage) {
		t.Fatalf("restored image (v%d, %d bytes) differs from the live one (v%d, %d bytes)",
			a2.Image().Version, len(gotImage), a.Image().Version, len(wantImage))
	}
	if err := sameBaseline(a2.scanner.Baseline(), wantBaseline); err != nil {
		t.Fatalf("restored scanner baseline: %v", err)
	}

	rep := syncOK(t, a2)
	if rep.LocalChanges != 0 || rep.CloudChanges != 0 {
		t.Fatalf("first pass after restart = %+v, want nothing to do", rep)
	}
	reg := r.regs["alpha"]
	// Every re-chunked file either records a change or counts as a
	// spurious mtime: both zero means nothing was re-chunked.
	if got := reg.Counter("scan.spurious_mtime").Value(); got != 0 {
		t.Fatalf("%d files re-chunked after restart", got)
	}
	for _, st := range r.stores {
		if got := reg.Op(st.Name(), obs.OpUpload).Calls(); got != 0 {
			t.Fatalf("%d uploads to %s after restart, want 0", got, st.Name())
		}
	}

	// The restarted client's store rebuilt its image by a full fetch and
	// replay, not by the copy-on-write steps the first process took. A
	// delta appended on top of that must still restore byte-identically.
	writeFile(t, fa, "after-restart.txt", "committed by the second process")
	syncOK(t, a2)
	if got := reg.Counter("core.checkpoint.deltas").Value(); got != 1 {
		t.Fatalf("second process: core.checkpoint.deltas = %d, want 1", got)
	}
	wantImage, err = a2.Image().Encode()
	if err != nil {
		t.Fatal(err)
	}
	a3 := restartDevice(t, r, "alpha", fa)
	if restored, reason, err := a3.LoadState(); err != nil || !restored {
		t.Fatalf("third process: restored=%v reason=%q err=%v", restored, reason, err)
	}
	if gotImage, err = a3.Image().Encode(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotImage, wantImage) {
		t.Fatal("third process: restored image differs from the second process's live one")
	}
	if err := sameBaseline(a3.scanner.Baseline(), a2.scanner.Baseline()); err != nil {
		t.Fatalf("third process: restored scanner baseline: %v", err)
	}
}

// TestLoadStateDamagedLog pins what LoadState makes of every damaged
// shape of the checkpoint files: the version restored, the cold-start
// reason, and the counters.
func TestLoadStateDamagedLog(t *testing.T) {
	// fixture commits three files in three passes: a base at v2 (the
	// commit plus its reliability follow-up), then a delta per pass.
	type fixture struct {
		r        *rig
		a        *Client
		folder   *localfs.Mem
		versions []int64 // image version after each pass
	}
	build := func(t *testing.T) *fixture {
		fx := &fixture{r: newRig(5)}
		fx.a, fx.folder = fx.r.device(t, "alpha")
		for i := 0; i < 3; i++ {
			writeFile(t, fx.folder, fmt.Sprintf("f%d.txt", i), fmt.Sprintf("file %d", i))
			fx.versions = append(fx.versions, syncOK(t, fx.a).Version)
		}
		for n := 1; n <= 2; n++ {
			if _, err := fx.folder.Stat(deltaPath(n)); err != nil {
				t.Fatalf("fixture: delta %d not written: %v", n, err)
			}
		}
		return fx
	}
	read := func(t *testing.T, f *localfs.Mem, path string) []byte {
		data, err := f.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	write := func(t *testing.T, f *localfs.Mem, path string, data []byte) {
		if err := f.WriteFile(path, data, time.Now()); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		device string
		damage func(t *testing.T, fx *fixture)
		// wantPass is the index into fixture.versions of the pass whose
		// version is restored; -1 means a cold start with wantReason.
		wantPass      int
		wantReason    string
		wantTruncated int64
	}{
		{
			name:     "intact",
			damage:   func(*testing.T, *fixture) {},
			wantPass: 2,
		},
		{
			name: "torn last delta",
			damage: func(t *testing.T, fx *fixture) {
				data := read(t, fx.folder, deltaPath(2))
				write(t, fx.folder, deltaPath(2), data[:len(data)/2])
			},
			wantPass: 1, wantTruncated: 1,
		},
		{
			name: "bit flip in first delta",
			damage: func(t *testing.T, fx *fixture) {
				data := read(t, fx.folder, deltaPath(1))
				data[len(data)-3] ^= 0x01
				write(t, fx.folder, deltaPath(1), data)
			},
			wantPass: 0, wantTruncated: 1,
		},
		{
			name: "base rewritten, old deltas not yet deleted",
			damage: func(t *testing.T, fx *fixture) {
				d1, d2 := read(t, fx.folder, deltaPath(1)), read(t, fx.folder, deltaPath(2))
				if err := fx.a.SaveState(); err != nil {
					t.Fatal(err)
				}
				if _, err := fx.folder.Stat(deltaPath(1)); err == nil {
					t.Fatal("SaveState left delta 1 behind")
				}
				write(t, fx.folder, deltaPath(1), d1)
				write(t, fx.folder, deltaPath(2), d2)
			},
			wantPass: 2,
		},
		{
			name: "gap in the numbering",
			damage: func(t *testing.T, fx *fixture) {
				// A fourth pass writes delta 3; delta 2 then goes missing.
				writeFile(t, fx.folder, "f3.txt", "file 3")
				syncOK(t, fx.a)
				if err := fx.folder.Remove(deltaPath(2)); err != nil {
					t.Fatal(err)
				}
			},
			wantPass: 1,
		},
		{
			name:     "foreign device",
			device:   "beta",
			damage:   func(*testing.T, *fixture) {},
			wantPass: -1, wantReason: ColdStartForeignDevice,
		},
		{
			name: "legacy single-blob format",
			damage: func(t *testing.T, fx *fixture) {
				img, err := fx.a.Image().Encode()
				if err != nil {
					t.Fatal(err)
				}
				legacy := fmt.Sprintf(`{"device":"alpha","savedAt":"2024-01-01T00:00:00Z","image":%s,"baseline":[]}`, img)
				write(t, fx.folder, statePath, []byte(legacy))
			},
			wantPass: -1, wantReason: ColdStartLegacyFormat,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := build(t)
			tc.damage(t, fx)
			device := tc.device
			if device == "" {
				device = "alpha"
			}
			c := restartDevice(t, fx.r, device, fx.folder)
			reg := fx.r.regs[device]
			restored, reason, err := c.LoadState()
			if err != nil {
				t.Fatal(err)
			}
			if got := reg.Counter("core.checkpoint.truncated").Value(); got != tc.wantTruncated {
				t.Errorf("core.checkpoint.truncated = %d, want %d", got, tc.wantTruncated)
			}
			if tc.wantPass < 0 {
				if restored || reason != tc.wantReason {
					t.Fatalf("restored=%v reason=%q, want cold start %q", restored, reason, tc.wantReason)
				}
				if got := reg.Counter("core.coldstart." + tc.wantReason).Value(); got != 1 {
					t.Errorf("core.coldstart.%s = %d, want 1", tc.wantReason, got)
				}
				return
			}
			if !restored {
				t.Fatalf("cold start (%q), want v%d restored", reason, fx.versions[tc.wantPass])
			}
			if got, want := c.Image().Version, fx.versions[tc.wantPass]; got != want {
				t.Fatalf("restored v%d, want v%d", got, want)
			}
			// Whatever was lost is re-applied from the clouds, not
			// re-committed, and the log keeps working from there.
			if rep := syncOK(t, c); rep.LocalChanges != 0 {
				t.Fatalf("pass after restore re-committed %d changes", rep.LocalChanges)
			}
			writeFile(t, fx.folder, "after.txt", "written after the restart")
			want := syncOK(t, c).Version
			again := restartDevice(t, fx.r, device, fx.folder)
			if restored, reason, err := again.LoadState(); err != nil || !restored {
				t.Fatalf("second restart: restored=%v reason=%q err=%v", restored, reason, err)
			}
			if got := again.Image().Version; got != want {
				t.Fatalf("second restart restored v%d, want v%d", got, want)
			}
			if got := fx.r.regs[device].Counter("core.checkpoint.truncated").Value(); got != 0 {
				t.Errorf("second restart: core.checkpoint.truncated = %d, want 0", got)
			}
		})
	}
}

// stateCountingFolder counts the bytes written under the private state
// prefix, and which of those writes went through the durable path.
type stateCountingFolder struct {
	*localfs.Mem
	stateBytes atomic.Int64
	durable    []string
}

func (f *stateCountingFolder) WriteFile(path string, data []byte, modTime time.Time) error {
	if strings.HasPrefix(path, localfs.StatePrefix) {
		f.stateBytes.Add(int64(len(data)))
	}
	return f.Mem.WriteFile(path, data, modTime)
}

func (f *stateCountingFolder) WriteFileDurable(path string, data []byte, modTime time.Time) error {
	f.durable = append(f.durable, path)
	return f.WriteFile(path, data, modTime)
}

// TestCheckpointBytesIndependentOfFolderSize is the O(changes) guard,
// on a deterministic count rather than wall time: what one single-file
// pass writes under .unidrive/ (journal and checkpoint together) must
// not grow with the number of files already committed.
func TestCheckpointBytesIndependentOfFolderSize(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 11 000 files")
	}
	passBytes := func(nFiles int) int64 {
		r := newRig(5)
		folder := &stateCountingFolder{Mem: localfs.NewMem()}
		c := restartDevice(t, r, "alpha", folder)
		for i := 0; i < nFiles; i++ {
			writeFile(t, folder.Mem, benchPath(i), "seed content of "+benchPath(i))
		}
		syncOK(t, c)
		before := folder.stateBytes.Load()
		writeFile(t, folder.Mem, "one-more.txt", "the single new file")
		if rep := syncOK(t, c); rep.LocalChanges != 1 {
			t.Fatalf("%d files: single-file pass committed %d changes", nFiles, rep.LocalChanges)
		}
		// Of the checkpoint files only the base takes the durable path:
		// an fsync per pass would cost more than the delta it protects.
		baseDurable := false
		for _, p := range folder.durable {
			baseDurable = baseDurable || p == statePath
			if p != statePath && p != journal.Path {
				t.Fatalf("%d files: durable write of %s", nFiles, p)
			}
		}
		if !baseDurable {
			t.Fatalf("%d files: the base was not written durably", nFiles)
		}
		return folder.stateBytes.Load() - before
	}
	small, large := passBytes(1000), passBytes(10000)
	t.Logf("bytes under %s per single-file pass: %d at 1 000 files, %d at 10 000", localfs.StatePrefix, small, large)
	if small <= 0 || large >= 2*small {
		t.Fatalf("single-file pass wrote %d bytes at 1 000 files and %d at 10 000: not O(changes)", small, large)
	}
}
