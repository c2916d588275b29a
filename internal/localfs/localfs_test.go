package localfs

import (
	"errors"
	"testing"
	"time"
)

// folderImpls returns both Folder implementations for shared tests.
func folderImpls(t *testing.T) map[string]Folder {
	t.Helper()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Folder{"mem": NewMem(), "dir": dir}
}

func TestFolderReadWriteRoundTrip(t *testing.T) {
	for name, f := range folderImpls(t) {
		t.Run(name, func(t *testing.T) {
			mt := time.Unix(1700000000, 0)
			if err := f.WriteFile("docs/a.txt", []byte("hello"), mt); err != nil {
				t.Fatal(err)
			}
			got, err := f.ReadFile("docs/a.txt")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "hello" {
				t.Fatalf("got %q", got)
			}
			fi, err := f.Stat("docs/a.txt")
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size != 5 || !fi.ModTime.Equal(mt) {
				t.Fatalf("stat = %+v", fi)
			}
		})
	}
}

func TestFolderMissingFile(t *testing.T) {
	for name, f := range folderImpls(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := f.ReadFile("ghost"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("ReadFile err = %v", err)
			}
			if _, err := f.Stat("ghost"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Stat err = %v", err)
			}
			if err := f.Remove("ghost"); err != nil {
				t.Fatalf("Remove missing: %v", err)
			}
		})
	}
}

func TestFolderListAllSorted(t *testing.T) {
	for name, f := range folderImpls(t) {
		t.Run(name, func(t *testing.T) {
			mt := time.Unix(1700000000, 0)
			for _, p := range []string{"z.txt", "a/b.txt", "m.txt"} {
				if err := f.WriteFile(p, []byte("x"), mt); err != nil {
					t.Fatal(err)
				}
			}
			infos, err := f.ListAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 3 {
				t.Fatalf("ListAll = %v", infos)
			}
			if infos[0].Path != "a/b.txt" || infos[1].Path != "m.txt" || infos[2].Path != "z.txt" {
				t.Fatalf("order = %v", infos)
			}
		})
	}
}

func TestFolderRejectsEscapingPaths(t *testing.T) {
	for name, f := range folderImpls(t) {
		t.Run(name, func(t *testing.T) {
			for _, p := range []string{"../escape", "/abs", "a/../../b"} {
				if err := f.WriteFile(p, []byte("x"), time.Now()); err == nil {
					t.Errorf("path %q accepted", p)
				}
			}
		})
	}
}

func TestDirSkipsUniDriveState(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile(".unidrive/state.json", []byte("internal"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("user.txt", []byte("u"), time.Now()); err != nil {
		t.Fatal(err)
	}
	infos, err := d.ListAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Path != "user.txt" {
		t.Fatalf("ListAll should skip .unidrive: %v", infos)
	}
}

func TestScannerDetectsAddModifyRemove(t *testing.T) {
	f := NewMem()
	s := NewScanner(f)
	if _, err := s.Scan(); err != nil { // establish empty baseline
		t.Fatal(err)
	}

	t0 := time.Unix(1000, 0)
	must(t, f.WriteFile("a.txt", []byte("v1"), t0))
	events, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != Added || events[0].Info.Path != "a.txt" {
		t.Fatalf("events = %+v", events)
	}

	must(t, f.WriteFile("a.txt", []byte("v2!"), t0.Add(time.Second)))
	events, err = s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != Modified {
		t.Fatalf("events = %+v", events)
	}

	must(t, f.Remove("a.txt"))
	events, err = s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != Removed || events[0].Info.Path != "a.txt" {
		t.Fatalf("events = %+v", events)
	}

	// No change -> no events.
	events, err = s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("idle scan produced %+v", events)
	}
}

func TestScannerPrime(t *testing.T) {
	f := NewMem()
	must(t, f.WriteFile("pre.txt", []byte("x"), time.Unix(1, 0)))
	s := NewScanner(f)
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	events, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("primed scanner reported %+v", events)
	}
}

func TestScannerSuppressOwnWrites(t *testing.T) {
	f := NewMem()
	s := NewScanner(f)
	if _, err := s.Scan(); err != nil {
		t.Fatal(err)
	}
	mt := time.Unix(2000, 0)
	// UniDrive applies a cloud update locally and suppresses it.
	must(t, f.WriteFile("from-cloud.txt", []byte("body"), mt))
	s.Suppress("from-cloud.txt", 4, mt, false)
	events, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("suppressed write reported: %+v", events)
	}
	// A later user edit is still detected.
	must(t, f.WriteFile("from-cloud.txt", []byte("user edit"), mt.Add(time.Minute)))
	events, err = s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != Modified {
		t.Fatalf("later edit missed: %+v", events)
	}
}

func TestScannerSuppressRemove(t *testing.T) {
	f := NewMem()
	must(t, f.WriteFile("doomed.txt", []byte("x"), time.Unix(1, 0)))
	s := NewScanner(f)
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	must(t, f.Remove("doomed.txt"))
	s.Suppress("doomed.txt", 0, time.Time{}, true)
	events, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("suppressed removal reported: %+v", events)
	}
}

func TestScannerSuppressMismatchStillReported(t *testing.T) {
	// If the user modified the file after UniDrive wrote it, the
	// suppression must not swallow the user's change.
	f := NewMem()
	s := NewScanner(f)
	if _, err := s.Scan(); err != nil {
		t.Fatal(err)
	}
	s.Suppress("f.txt", 4, time.Unix(2000, 0), false)
	must(t, f.WriteFile("f.txt", []byte("different content"), time.Unix(3000, 0)))
	events, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != Added {
		t.Fatalf("mismatched suppression swallowed a change: %+v", events)
	}
}

// TestBaselineFoldsPendingSuppressions pins the persisted-baseline
// contract: state saved right after UniDrive applied a cloud update
// (writes suppressed, next Scan not yet run) must already reflect
// those writes — a client restarted from a pre-write baseline would
// re-detect its own downloads as local edits.
func TestBaselineFoldsPendingSuppressions(t *testing.T) {
	f := NewMem()
	must(t, f.WriteFile("kept.txt", []byte("old"), time.Unix(1, 0)))
	must(t, f.WriteFile("gone.txt", []byte("x"), time.Unix(1, 0)))
	s := NewScanner(f)
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	// UniDrive applies: rewrites kept.txt, writes new.txt, removes
	// gone.txt — all suppressed, none scanned yet.
	mt := time.Unix(2000, 0)
	s.Suppress("kept.txt", 7, mt, false)
	s.Suppress("new.txt", 9, mt, false)
	s.Suppress("gone.txt", 0, time.Time{}, true)
	got := make(map[string]FileInfo)
	for _, fi := range s.Baseline() {
		got[fi.Path] = fi
	}
	if _, there := got["gone.txt"]; there {
		t.Fatal("suppressed removal survives in the baseline")
	}
	if fi := got["kept.txt"]; fi.Size != 7 || !fi.ModTime.Equal(mt) {
		t.Fatalf("kept.txt baseline = %+v, want the suppressed write", fi)
	}
	if fi, there := got["new.txt"]; !there || fi.Size != 9 {
		t.Fatalf("new.txt missing from baseline: %+v", fi)
	}
	// BaselineFor is the same view restricted to the paths asked for.
	known, gone := s.BaselineFor([]string{"new.txt", "never.txt", "kept.txt", "gone.txt"})
	if len(known) != 2 || known[0] != got["kept.txt"] || known[1] != got["new.txt"] {
		t.Fatalf("BaselineFor known = %+v, want kept.txt and new.txt as in Baseline", known)
	}
	if len(gone) != 2 || gone[0] != "gone.txt" || gone[1] != "never.txt" {
		t.Fatalf("BaselineFor gone = %v, want [gone.txt never.txt]", gone)
	}
	// Folding must not consume the entries: the next Scan still needs
	// them to stay quiet.
	events, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	// kept.txt and new.txt were never actually written here, so their
	// unmatched suppressions correctly surface the difference; only
	// gone.txt's removal must stay silent.
	for _, ev := range events {
		if ev.Info.Path == "gone.txt" {
			t.Fatalf("suppressed removal reported: %+v", ev)
		}
	}
}

func TestChangeKindString(t *testing.T) {
	if Added.String() != "added" || Modified.String() != "modified" || Removed.String() != "removed" {
		t.Fatal("kind names wrong")
	}
	if ChangeKind(9).String() == "" {
		t.Fatal("unknown kind should print")
	}
}

func TestConflictCopyPath(t *testing.T) {
	tests := []struct{ path, device, want string }{
		{"doc.txt", "laptop", "doc (conflicted copy from laptop).txt"},
		{"dir/doc.txt", "phone", "dir/doc (conflicted copy from phone).txt"},
		{"noext", "d", "noext (conflicted copy from d)"},
		{"dir/.hidden", "d", "dir/.hidden (conflicted copy from d)"},
	}
	for _, tt := range tests {
		if got := ConflictCopyPath(tt.path, tt.device); got != tt.want {
			t.Errorf("ConflictCopyPath(%q, %q) = %q, want %q", tt.path, tt.device, got, tt.want)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
