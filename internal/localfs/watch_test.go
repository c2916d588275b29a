package localfs

import (
	"errors"
	"testing"
	"time"
)

func collectEvents(t *testing.T, w Watch, want int) []WatchEvent {
	t.Helper()
	var got []WatchEvent
	timeout := time.After(5 * time.Second)
	for len(got) < want {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("events channel closed after %d events, want %d", len(got), want)
			}
			got = append(got, ev)
		case <-timeout:
			t.Fatalf("timed out with %d events, want %d", len(got), want)
		}
	}
	return got
}

func TestMemWatchDeliversWriteAndRemove(t *testing.T) {
	m := NewMem()
	w, err := m.Watch()
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()

	if err := m.WriteFile("a.txt", []byte("hi"), time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("a.txt"); err != nil {
		t.Fatal(err)
	}
	got := collectEvents(t, w, 2)
	for _, ev := range got {
		if ev.Path != "a.txt" {
			t.Errorf("event path = %q, want a.txt", ev.Path)
		}
	}
	if w.Overflowed() {
		t.Error("unexpected overflow")
	}
}

func TestMemWatchHidesStateDir(t *testing.T) {
	m := NewMem()
	w, err := m.Watch()
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()

	if err := m.WriteFile(StatePrefix+"state.json", []byte("{}"), time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("visible.txt", []byte("x"), time.Unix(2, 0)); err != nil {
		t.Fatal(err)
	}
	got := collectEvents(t, w, 1)
	if got[0].Path != "visible.txt" {
		t.Errorf("event path = %q, want visible.txt (state dir must be invisible)", got[0].Path)
	}
	select {
	case ev := <-w.Events():
		t.Errorf("unexpected extra event %q", ev.Path)
	default:
	}
}

func TestMemWatchOverflowSetsFlagWithoutBlocking(t *testing.T) {
	m := NewMem()
	w, err := m.Watch()
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()

	// Nobody drains: overfill the buffer and verify writes never block.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < watchBuffer+10; i++ {
			_ = m.WriteFile("f.txt", []byte("x"), time.Unix(int64(i), 0))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked on full watch buffer")
	}
	if !w.Overflowed() {
		t.Error("Overflowed() = false after buffer overrun")
	}
	if w.Overflowed() {
		t.Error("Overflowed() did not clear the flag")
	}
}

func TestMemWatchCloseStopsDelivery(t *testing.T) {
	m := NewMem()
	w, err := m.Watch()
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Writes after close must not panic (send on closed channel).
	if err := m.WriteFile("late.txt", []byte("x"), time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-w.Events(); ok {
		t.Error("events channel still open after Close")
	}
}

func TestDirWatchDeliversEvents(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
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

	if err := dir.WriteFile("doc.txt", []byte("v1"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	got := collectEvents(t, w, 1)
	seen := map[string]bool{}
	for _, ev := range got {
		seen[ev.Path] = true
	}
	if !seen["doc.txt"] {
		t.Fatalf("no event for doc.txt, got %v", got)
	}
}

func TestDirWatchSeesNewSubdirectories(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
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

	// WriteFile creates the parent directory and the file in one go;
	// the watcher must extend itself into sub/ and report the file
	// (either from the dir-create synthetic walk or the file event).
	if err := dir.WriteFile("sub/nested.txt", []byte("v1"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatal("events channel closed")
			}
			if ev.Path == "sub/nested.txt" {
				return
			}
		case <-deadline:
			t.Fatal("no event for sub/nested.txt")
		}
	}
}

func TestDirWatchIgnoresStateDir(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
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

	if err := dir.WriteFile(StatePrefix+"journal.json", []byte("{}"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := dir.WriteFile("after.txt", []byte("x"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatal("events channel closed")
			}
			if ev.Path == "after.txt" {
				return
			}
			t.Fatalf("unexpected event %q before after.txt", ev.Path)
		case <-deadline:
			t.Fatal("no event for after.txt")
		}
	}
}

func TestDirWatchCloseClosesChannel(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := dir.Watch()
	if errors.Is(err, ErrWatchUnsupported) {
		t.Skip("no native watch backend on this platform")
	}
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-w.Events():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("events channel not closed after Close")
		}
	}
}

func TestScanDirtyReportsOnlyRealChanges(t *testing.T) {
	m := NewMem()
	s := NewScanner(m)
	if err := m.WriteFile("a.txt", []byte("aa"), time.Unix(10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("b.txt", []byte("bb"), time.Unix(10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := scan(s); err != nil {
		t.Fatal(err)
	}

	// a.txt edited, b.txt untouched but over-reported, c.txt created.
	if err := m.WriteFile("a.txt", []byte("aaa"), time.Unix(20, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("c.txt", []byte("c"), time.Unix(20, 0)); err != nil {
		t.Fatal(err)
	}
	events, statted, err := scanDirty(s, []string{"a.txt", "b.txt", "c.txt", "a.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if statted != 3 {
		t.Errorf("statted = %d, want 3 (deduped)", statted)
	}
	if len(events) != 2 {
		t.Fatalf("events = %v, want edit(a)+add(c)", events)
	}
	if events[0].Kind != Modified || events[0].Info.Path != "a.txt" {
		t.Errorf("events[0] = %+v, want Modified a.txt", events[0])
	}
	if events[1].Kind != Added || events[1].Info.Path != "c.txt" {
		t.Errorf("events[1] = %+v, want Added c.txt", events[1])
	}

	// Baseline updated in place: re-scanning the same dirty set is quiet.
	events, _, err = scanDirty(s, []string{"a.txt", "b.txt", "c.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("second ScanDirty events = %v, want none", events)
	}
}

func TestScanDirtyRemovals(t *testing.T) {
	m := NewMem()
	s := NewScanner(m)
	if err := m.WriteFile("gone.txt", []byte("x"), time.Unix(10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := scan(s); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("gone.txt"); err != nil {
		t.Fatal(err)
	}
	events, _, err := scanDirty(s, []string{"gone.txt", "never-existed.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != Removed || events[0].Info.Path != "gone.txt" {
		t.Fatalf("events = %v, want one Removed gone.txt", events)
	}
	// A full scan afterwards must not re-report the removal.
	events, err = scan(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("Scan after ScanDirty removal = %v, want none", events)
	}
}

func TestScanDirtyHonorsSuppression(t *testing.T) {
	m := NewMem()
	s := NewScanner(m)
	mt := time.Unix(30, 0)
	if err := m.WriteFile("dl.txt", []byte("cloud"), mt); err != nil {
		t.Fatal(err)
	}
	s.Suppress("dl.txt", int64(len("cloud")), mt, false)
	events, _, err := scanDirty(s, []string{"dl.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("suppressed self-write reported: %v", events)
	}

	// Suppressed removal.
	if err := m.WriteFile("rm.txt", []byte("x"), mt); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanDirty(s, []string{"rm.txt"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("rm.txt"); err != nil {
		t.Fatal(err)
	}
	s.Suppress("rm.txt", 0, time.Time{}, true)
	events, _, err = scanDirty(s, []string{"rm.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("suppressed self-remove reported: %v", events)
	}
}

func TestScanDirtySkipsStateDir(t *testing.T) {
	m := NewMem()
	s := NewScanner(m)
	if err := m.WriteFile(StatePrefix+"state.json", []byte("{}"), time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	events, statted, err := scanDirty(s, []string{StatePrefix + "state.json"})
	if err != nil {
		t.Fatal(err)
	}
	if statted != 0 || len(events) != 0 {
		t.Errorf("state dir scanned: events=%v statted=%d", events, statted)
	}
}

func TestScanAllCountsFiles(t *testing.T) {
	m := NewMem()
	s := NewScanner(m)
	for _, p := range []string{"a", "b", "c"} {
		if err := m.WriteFile(p, []byte("x"), time.Unix(1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	events, n, err := s.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(events) != 3 {
		t.Errorf("ScanAll = %d events, %d files; want 3, 3", len(events), n)
	}
}
