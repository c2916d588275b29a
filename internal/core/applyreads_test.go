package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"unidrive/internal/localfs"
)

// countingFolder counts ReadFile calls per path: what a pass costs the
// local disk beyond stats.
type countingFolder struct {
	*localfs.Mem
	mu    sync.Mutex
	reads map[string]int
}

func newCountingFolder() *countingFolder {
	return &countingFolder{Mem: localfs.NewMem(), reads: make(map[string]int)}
}

func (f *countingFolder) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	f.reads[path]++
	f.mu.Unlock()
	return f.Mem.ReadFile(path)
}

// take returns the reads of path so far and resets the count.
func (f *countingFolder) take(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.reads[path]
	delete(f.reads, path)
	return n
}

func (f *countingFolder) content(t *testing.T, path string) string {
	t.Helper()
	data, err := f.Mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestOwnCommitReadsTheFileOnce: the scan reads and hashes a changed
// file; the apply half of the same pass must recognize its own commit
// from that, not read and hash the file again.
func TestOwnCommitReadsTheFileOnce(t *testing.T) {
	r := newRig(5)
	fa := newCountingFolder()
	a := r.deviceOn(t, "alpha", fa)
	if err := fa.WriteFile("big.bin", []byte(randContent(1, 20_000)), time.Now()); err != nil {
		t.Fatal(err)
	}
	rep, err := a.SyncDirty(ctxT(t), []string{"big.bin"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalChanges != 1 {
		t.Fatalf("LocalChanges = %d, want 1", rep.LocalChanges)
	}
	if n := fa.take("big.bin"); n != 1 {
		t.Fatalf("the committing pass read big.bin %d times, want exactly 1 (the scan)", n)
	}
	// Same for an overwrite of a file the image already knows.
	if err := fa.WriteFile("big.bin", []byte(randContent(2, 20_000)), time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SyncDirty(ctxT(t), []string{"big.bin"}); err != nil {
		t.Fatal(err)
	}
	if n := fa.take("big.bin"); n != 1 {
		t.Fatalf("the overwriting pass read big.bin %d times, want exactly 1", n)
	}
}

// TestApplySameSizeOverwriteReadsNothing: the receiver knows the file
// it holds is the previous version — stat, scanner baseline and image
// agree — so it must download the new one without first reading and
// hashing the old.
func TestApplySameSizeOverwriteReadsNothing(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	fb := newCountingFolder()
	b := r.deviceOn(t, "beta", fb)

	writeFile(t, fa, "slot.bin", randContent(3, 20_000))
	syncOK(t, a)
	syncOK(t, b)
	fb.take("slot.bin")

	v2 := randContent(4, 20_000)
	writeFile(t, fa, "slot.bin", v2)
	syncOK(t, a)
	if rep := syncOK(t, b); rep.CloudChanges != 1 {
		t.Fatalf("beta applied %d cloud changes, want 1", rep.CloudChanges)
	}
	if n := fb.take("slot.bin"); n != 0 {
		t.Fatalf("beta read its old slot.bin %d times before downloading the new one, want 0", n)
	}
	if fb.content(t, "slot.bin") != v2 {
		t.Fatal("beta does not hold the overwritten content")
	}
}

// TestApplyComparesUnscannedLocalEdit: a same-size local edit no scan
// has seen is outside what the device knows; the apply must fall back
// to reading and comparing the bytes — skipping the download only when
// they really are the incoming version.
func TestApplyComparesUnscannedLocalEdit(t *testing.T) {
	for _, c := range []struct {
		name          string
		localIsRemote bool
	}{
		{"edit differs from the incoming version", false},
		{"edit equals the incoming version", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(5)
			a, fa := r.device(t, "alpha")
			fb := newCountingFolder()
			b := r.deviceOn(t, "beta", fb)

			writeFile(t, fa, "doc.bin", randContent(5, 20_000))
			syncOK(t, a)
			syncOK(t, b)

			v2 := randContent(6, 20_000)
			writeFile(t, fa, "doc.bin", v2)
			syncOK(t, a)

			local := randContent(7, 20_000)
			if c.localIsRemote {
				local = v2
			}
			if err := fb.WriteFile("doc.bin", []byte(local), time.Now().Add(time.Minute)); err != nil {
				t.Fatal(err)
			}
			fb.take("doc.bin")
			blocksBefore := r.regs["beta"].Counter("transfer.down.blocks").Value()

			// SyncRemote does not scan: the edit stays unseen.
			rep, err := b.SyncRemote(ctxT(t))
			if err != nil {
				t.Fatal(err)
			}
			// Read and compare; an edit that differs is read once more, to
			// go aside as a conflict copy.
			wantReads, wantCopies := 1, 0
			if !c.localIsRemote {
				wantReads, wantCopies = 2, 1
			}
			if n := fb.take("doc.bin"); n != wantReads {
				t.Fatalf("apply read the edited file %d times, want %d", n, wantReads)
			}
			if len(rep.Conflicts) != wantCopies {
				t.Fatalf("conflicts = %v, want %d", rep.Conflicts, wantCopies)
			}
			if wantCopies == 1 && fb.content(t, rep.Conflicts[0]) != local {
				t.Fatal("the conflict copy does not hold the unscanned edit")
			}
			fetched := r.regs["beta"].Counter("transfer.down.blocks").Value() - blocksBefore
			if c.localIsRemote && fetched != 0 {
				t.Fatalf("%d blocks downloaded although the bytes on disk already were the incoming version", fetched)
			}
			if !c.localIsRemote && fetched == 0 {
				t.Fatal("apply skipped a file whose bytes differ from the incoming version")
			}
			if fb.content(t, "doc.bin") != v2 {
				t.Fatal("beta does not hold the committed version after the apply")
			}
		})
	}
}

// TestConflictCopyNeedsNoExtraRead: concurrent same-size edits still end
// as the cloud's version at the path plus a conflict copy of ours, and
// the apply half tells the two apart from the scan, not from the disk.
func TestConflictCopyNeedsNoExtraRead(t *testing.T) {
	r := newRig(5)
	a, fa := r.device(t, "alpha")
	fb := newCountingFolder()
	b := r.deviceOn(t, "beta", fb)

	writeFile(t, fa, "shared.bin", randContent(8, 9_000))
	syncOK(t, a)
	syncOK(t, b)
	syncOK(t, b) // the scan that sees beta's own write of shared.bin
	fb.take("shared.bin")

	theirs, ours := randContent(9, 9_000), randContent(10, 9_000)
	writeFile(t, fa, "shared.bin", theirs)
	syncOK(t, a)
	if err := fb.WriteFile("shared.bin", []byte(ours), time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	rep := syncOK(t, b)
	if len(rep.Conflicts) != 1 {
		t.Fatalf("conflicts = %v, want 1", rep.Conflicts)
	}
	if fb.content(t, "shared.bin") != theirs {
		t.Fatal("the cloud's version did not win the path")
	}
	if !bytes.Equal([]byte(fb.content(t, rep.Conflicts[0])), []byte(ours)) {
		t.Fatal("the conflict copy does not hold our edit")
	}
	// One read by the scan, one to write the conflict copy; none to find
	// out that our edit is not the cloud's version.
	if n := fb.take("shared.bin"); n != 2 {
		t.Fatalf("the conflicting pass read shared.bin %d times, want 2", n)
	}
}
