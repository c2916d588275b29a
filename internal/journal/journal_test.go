package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"unidrive/internal/localfs"
	"unidrive/internal/meta"
)

func mustOpen(t *testing.T, f localfs.Folder) *Journal {
	t.Helper()
	j, ok, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Open reported a damaged journal on a clean folder")
	}
	return j
}

func uploadIntent(id string) *Intent {
	return &Intent{
		ID:     id,
		Kind:   KindUpload,
		Device: "alpha",
		Changes: []*meta.Change{{
			Type: meta.ChangeAdd, Path: "a.txt",
			Snapshot: &meta.Snapshot{Path: "a.txt", SegmentIDs: []string{"seg1"}},
			Segments: []*meta.Segment{{ID: "seg1", Length: 10, K: 2, N: 4}},
		}},
		CreatedAt: time.Unix(100, 0),
	}
}

func TestLifecycleAndReload(t *testing.T) {
	f := localfs.NewMem()
	j := mustOpen(t, f)
	if j.Len() != 0 {
		t.Fatalf("fresh journal has %d intents", j.Len())
	}

	in := uploadIntent("batch1")
	if err := j.Begin(in); err != nil {
		t.Fatal(err)
	}
	if err := j.UpdatePlacements("batch1", "seg1", map[int]string{0: "c0", 1: "c1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.UpdatePlacements("batch1", "seg1", map[int]string{2: "c2"}); err != nil {
		t.Fatal(err)
	}
	if err := j.MarkCommitted("batch1", 7, nil); err != nil {
		t.Fatal(err)
	}

	// A second process opening the same folder sees the same record.
	j2 := mustOpen(t, f)
	active := j2.Active()
	if len(active) != 1 {
		t.Fatalf("reloaded journal has %d intents, want 1", len(active))
	}
	got := active[0]
	if got.State != StateCommitted || got.CommittedVersion != 7 {
		t.Fatalf("reloaded intent state %q v%d, want committed v7", got.State, got.CommittedVersion)
	}
	wantPlacement := map[int]string{0: "c0", 1: "c1", 2: "c2"}
	if !reflect.DeepEqual(got.Placements["seg1"], wantPlacement) {
		t.Fatalf("placements %v, want %v", got.Placements["seg1"], wantPlacement)
	}
	if ids := got.SegmentIDs(); len(ids) != 1 || ids[0] != "seg1" {
		t.Fatalf("SegmentIDs = %v", ids)
	}

	// Clearing the last intent removes the file entirely.
	if err := j2.Clear("batch1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile(Path); !errors.Is(err, localfs.ErrNotExist) {
		t.Fatalf("journal file survives an empty journal: %v", err)
	}
	if err := j2.Clear("batch1"); err != nil {
		t.Fatalf("clearing a cleared intent: %v", err)
	}
}

func TestBeginReplacesSameBatch(t *testing.T) {
	f := localfs.NewMem()
	j := mustOpen(t, f)
	if err := j.Begin(uploadIntent("batch1")); err != nil {
		t.Fatal(err)
	}
	if err := j.UpdatePlacements("batch1", "seg1", map[int]string{0: "c0"}); err != nil {
		t.Fatal(err)
	}
	// The same batch retried after a failed pass: the stale placements
	// are replaced, not merged.
	if err := j.Begin(uploadIntent("batch1")); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d after re-Begin, want 1", j.Len())
	}
	if got := j.Active()[0]; got.Placements != nil {
		t.Fatalf("re-begun intent kept stale placements %v", got.Placements)
	}
}

func TestBeginOrderPreserved(t *testing.T) {
	f := localfs.NewMem()
	j := mustOpen(t, f)
	for _, id := range []string{"b1", "b2", "b3"} {
		if err := j.Begin(&Intent{ID: id, Kind: KindApply, Paths: []string{"x"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Clear("b2"); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, f)
	var ids []string
	for _, in := range j2.Active() {
		ids = append(ids, in.ID)
	}
	if !reflect.DeepEqual(ids, []string{"b1", "b3"}) {
		t.Fatalf("active order %v, want [b1 b3]", ids)
	}
	// Default state is stamped at Begin.
	if j2.Active()[0].State != StateUploading {
		t.Fatalf("state %q, want %q", j2.Active()[0].State, StateUploading)
	}
}

func TestCorruptJournalResets(t *testing.T) {
	f := localfs.NewMem()
	if err := f.WriteFile(Path, []byte("{torn write"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	j, ok, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Open did not report the damaged journal")
	}
	if j.Len() != 0 {
		t.Fatalf("damaged journal yielded %d intents", j.Len())
	}
	// The damaged file is gone so the next generation starts clean.
	if _, err := f.ReadFile(Path); !errors.Is(err, localfs.ErrNotExist) {
		t.Fatalf("damaged journal file left behind: %v", err)
	}
}

// TestOldFormatJournalRefused: a journal left by a version that named
// segments by SHA-1 is refused with the re-sync error, not reset as
// damaged, and stays on disk.
func TestOldFormatJournalRefused(t *testing.T) {
	f := localfs.NewMem()
	old := `{"intents":[{"id":"b1","kind":"upload","state":"uploading","changes":[{"type":1,"path":"f",` +
		`"segments":[{"id":"a9993e364706816aba3e25717850c26c9cd0d89d","blocks":[{"blockId":0,"cloudId":"c1","crc":5}]}]}]}]}`
	if err := f.WriteFile(Path, []byte(old), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(f); !errors.Is(err, meta.ErrOldFormat) {
		t.Fatalf("Open = %v, want meta.ErrOldFormat", err)
	}
	if data, err := f.ReadFile(Path); err != nil || string(data) != old {
		t.Fatalf("refused journal not left in place: %v", err)
	}
}

func TestErrorsOnUnknownIntent(t *testing.T) {
	j := mustOpen(t, localfs.NewMem())
	if err := j.UpdatePlacements("nope", "seg", nil); err == nil {
		t.Fatal("UpdatePlacements on unknown intent succeeded")
	}
	if err := j.MarkCommitted("nope", 1, nil); err == nil {
		t.Fatal("MarkCommitted on unknown intent succeeded")
	}
	if err := j.Begin(&Intent{}); err == nil {
		t.Fatal("Begin without ID succeeded")
	}
}

func TestBatchIDStableAndDistinct(t *testing.T) {
	mk := func(path string) []*meta.Change {
		return []*meta.Change{{
			Type: meta.ChangeAdd, Path: path,
			Snapshot: &meta.Snapshot{Path: path},
		}}
	}
	a1, a2, b := BatchID(mk("a")), BatchID(mk("a")), BatchID(mk("b"))
	if a1 != a2 {
		t.Fatalf("same batch hashed differently: %s vs %s", a1, a2)
	}
	if a1 == b {
		t.Fatalf("different batches collided: %s", a1)
	}
	if a1 == BatchID(nil) {
		t.Fatal("batch collided with the empty batch")
	}
}

func TestDurableWriteOnRealDir(t *testing.T) {
	dir, err := localfs.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir)
	if err := j.Begin(uploadIntent("batch1")); err != nil {
		t.Fatal(err)
	}
	// The journal landed via the durable path: the file parses and no
	// temp-file debris is left next to it.
	data, err := dir.ReadFile(Path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Intents []json.RawMessage `json:"intents"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil || len(parsed.Intents) != 1 {
		t.Fatalf("journal on disk: %v (%d intents)", err, len(parsed.Intents))
	}
	entries, err := os.ReadDir(filepath.Join(dir.Root(), ".unidrive"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "journal.json" {
			t.Fatalf("unexpected debris in state dir: %s", e.Name())
		}
	}
	j2 := mustOpen(t, dir)
	if j2.Len() != 1 {
		t.Fatalf("reload from real dir: %d intents", j2.Len())
	}
}
