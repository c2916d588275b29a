package localfs

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"
)

func TestDirRootIsAbsolute(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	root := dir.Root()
	if root == "" || root[0] != '/' {
		t.Fatalf("Root = %q, want absolute path", root)
	}
	if _, err := os.Stat(root); err != nil {
		t.Fatalf("root does not exist: %v", err)
	}
}

func TestDirWriteFileDurable(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mt := time.Unix(1_700_000_000, 0)
	if err := dir.WriteFileDurable("a/b.txt", []byte("v1"), mt); err != nil {
		t.Fatal(err)
	}
	got, err := dir.ReadFile("a/b.txt")
	if err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("read back %q, %v", got, err)
	}
	fi, err := dir.Stat("a/b.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !fi.ModTime.Equal(mt) {
		t.Fatalf("modTime = %v, want %v", fi.ModTime, mt)
	}
	// Overwrite is atomic-replace: new content fully lands.
	if err := dir.WriteFileDurable("a/b.txt", []byte("v2-longer"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	got, err = dir.ReadFile("a/b.txt")
	if err != nil || !bytes.Equal(got, []byte("v2-longer")) {
		t.Fatalf("after overwrite: %q, %v", got, err)
	}
	// No temp files are left behind.
	entries, err := os.ReadDir(dir.Root() + "/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "b.txt" {
		t.Fatalf("leftover files: %v", entries)
	}
	// Path escapes are rejected like any other write.
	if err := dir.WriteFileDurable("../evil", []byte("x"), time.Time{}); err == nil {
		t.Fatal("escaping path accepted")
	}
}

func TestDirRemoveMissingIsNoop(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Remove("nope.txt"); err != nil {
		t.Fatalf("removing a missing file should be a no-op, got %v", err)
	}
	if err := dir.Remove("../escape"); err == nil {
		t.Fatal("escaping remove accepted")
	}
	if _, err := dir.Stat("nope.txt"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Stat missing = %v, want ErrNotExist", err)
	}
	if _, err := dir.ReadFile("nope.txt"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("ReadFile missing = %v, want ErrNotExist", err)
	}
}

func TestScannerRestoreBaseline(t *testing.T) {
	folder := NewMem()
	s := NewScanner(folder)
	mt := time.Unix(2000, 0)
	if err := folder.WriteFile("kept.txt", []byte("same"), mt); err != nil {
		t.Fatal(err)
	}
	if err := folder.WriteFile("edited.txt", []byte("new content"), mt.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Restore a persisted baseline: kept.txt unchanged, edited.txt
	// differs, gone.txt no longer on disk.
	s.Restore([]FileInfo{
		{Path: "kept.txt", Size: 4, ModTime: mt},
		{Path: "edited.txt", Size: 3, ModTime: mt},
		{Path: "gone.txt", Size: 9, ModTime: mt},
	})
	changes, err := scan(s)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]ChangeKind{}
	for _, c := range changes {
		got[c.Info.Path] = c.Kind
	}
	if got["edited.txt"] != Modified {
		t.Fatalf("edited.txt = %v, want modified (changes %v)", got["edited.txt"], changes)
	}
	if got["gone.txt"] != Removed {
		t.Fatalf("gone.txt = %v, want removed", got["gone.txt"])
	}
	if _, ok := got["kept.txt"]; ok {
		t.Fatal("kept.txt reported despite matching the restored baseline")
	}
}

func TestDirWatchOverflowedOnDirectoryDelete(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.WriteFile("sub/f.txt", []byte("x"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	w, err := dir.Watch()
	if errors.Is(err, ErrWatchUnsupported) {
		t.Skip("no native watch backend on this platform")
	}
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()
	if w.Overflowed() {
		t.Fatal("fresh watch already overflowed")
	}
	// A directory departing wholesale cannot be expressed as per-path
	// dirt; the watcher must report it as an overflow.
	if err := os.RemoveAll(dir.Root() + "/sub"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for !w.Overflowed() {
		select {
		case <-deadline:
			t.Fatal("directory removal never raised the overflow flag")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Swap semantics: reading the flag clears it.
	if w.Overflowed() {
		t.Fatal("Overflowed did not clear on read")
	}
}
