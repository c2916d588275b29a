package meta

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func addChange(path string, segIDs ...string) *Change {
	return &Change{
		Type: ChangeAdd, Path: path,
		Snapshot: snap(path, "dev", segIDs...),
		Time:     time.Unix(10, 0),
	}
}

func delChange(path string) *Change {
	return &Change{Type: ChangeDelete, Path: path, Time: time.Unix(20, 0)}
}

func TestChangeTypeString(t *testing.T) {
	if ChangeAdd.String() != "add" || ChangeEdit.String() != "edit" || ChangeDelete.String() != "delete" {
		t.Fatal("change type names wrong")
	}
	if ChangeType(99).String() == "" {
		t.Fatal("unknown type should still print")
	}
}

func TestChangeValidate(t *testing.T) {
	tests := []struct {
		name    string
		c       *Change
		wantErr bool
	}{
		{"valid add", addChange("a"), false},
		{"valid delete", delChange("a"), false},
		{"empty path", &Change{Type: ChangeAdd, Snapshot: snap("", "d")}, true},
		{"add without snapshot", &Change{Type: ChangeAdd, Path: "a"}, true},
		{"path mismatch", &Change{Type: ChangeEdit, Path: "a", Snapshot: snap("b", "d")}, true},
		{"delete with snapshot", &Change{Type: ChangeDelete, Path: "a", Snapshot: snap("a", "d")}, true},
		{"unknown type", &Change{Type: ChangeType(9), Path: "a"}, true},
		{"nil change", nil, true},
		{"nil segment", &Change{Type: ChangeDelete, Path: "s", Segments: []*Segment{nil}}, true},
		{"valid placement", &Change{Type: ChangePlace, Path: "s", Drop: []int{1}}, false},
		{"placement with a snapshot", &Change{Type: ChangePlace, Path: "s", Snapshot: snap("s", "d")}, true},
		{"placement with a segment", &Change{Type: ChangePlace, Path: "s", Segments: []*Segment{seg("s")}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.c.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestChangeEncodeDecodeRoundTrip(t *testing.T) {
	c := addChange("dir/f.txt", "s1", "s2")
	c.Segments = []*Segment{seg("s1", BlockLocation{BlockID: 0, CloudID: "c1", Checksum: 7})}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got := new(Change)
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if got.Type != ChangeAdd || got.Path != "dir/f.txt" {
		t.Fatalf("decoded %+v", got)
	}
	if got.Snapshot == nil || len(got.Snapshot.SegmentIDs) != 2 {
		t.Fatal("snapshot lost")
	}
	if len(got.Segments) != 1 || !got.Segments[0].HasBlock(0, "c1") {
		t.Fatal("segments lost")
	}
}

// A placement record goes on the wire as its segment ID and the
// locations it moves, nothing else, and decodes back to itself; a
// whole-record relocate, its predecessor, is refused as an old format.
func TestPlaceRecordWireForm(t *testing.T) {
	id := strings.Repeat("ab", 32)
	c := &Change{Type: ChangePlace, Path: id, Place: []BlockLocation{{BlockID: 4, CloudID: "c4", Checksum: 7}}, Drop: []int{6}}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"type":5,"path":"` + id + `","place":[{"blockId":4,"cloudId":"c4","crc":7}],"drop":[6]}`
	if string(data) != want {
		t.Fatalf("encoded %s\nwant    %s", data, want)
	}
	got := new(Change)
	if err := json.Unmarshal(data, got); err != nil || !reflect.DeepEqual(got, c) {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, c)
	}
	for _, old := range []string{
		`{"type":4,"path":"` + id + `","segments":[{"id":"` + id + `","length":1,"k":3,"n":5,"refCount":0,"blocks":[{"blockId":0,"cloudId":"c0","crc":1}]}],"time":"0001-01-01T00:00:00Z"}`,
		`{"type":5,"path":"` + id + `","place":[{"blockId":4,"cloudId":"c4"}]}`,
		`{"type":5,"path":"` + id[:40] + `","drop":[1]}`,
	} {
		if err := json.Unmarshal([]byte(old), new(Change)); !errors.Is(err, ErrOldFormat) {
			t.Errorf("decoding %s: %v, want ErrOldFormat", old, err)
		}
	}
}

// PlaceChange states what differs between two records of a segment,
// and a record laid on the first gives the second.
func TestPlaceChangeTakesOneRecordToAnother(t *testing.T) {
	loc := func(id int, cloud string) BlockLocation {
		return BlockLocation{BlockID: id, CloudID: cloud, Checksum: uint32(id + 1)}
	}
	from := seg("s", loc(0, "c0"), loc(1, "c1"), loc(2, "c2"), loc(2, "c3"))
	for _, to := range []*Segment{
		seg("s", loc(0, "c0"), loc(1, "c1")),                                 // trimmed
		seg("s", loc(0, "c0"), loc(1, "c1"), loc(2, "c3")),                   // one copy of a duplicate ID trimmed
		seg("s", loc(0, "c4"), loc(1, "c1"), loc(2, "c2"), loc(3, "c3")),     // moved and added
		{ID: "s", Length: 100, K: 3, N: 10, Blocks: from.Blocks, Thin: true}, // only the verdict
	} {
		c := PlaceChange(from, to)
		im := NewImage()
		im.UpsertSegment(from)
		if err := im.Apply(c, "dev"); err != nil {
			t.Fatal(err)
		}
		got, _ := im.Segment("s")
		if !reflect.DeepEqual(got.Sums(), to.Sums()) || len(got.Blocks) != len(to.Blocks) || got.Thin != to.Thin {
			t.Errorf("%+v laid on %+v gives %+v, want %+v", c, from.Blocks, got.Blocks, to.Blocks)
		}
		for _, b := range to.Blocks {
			if !got.HasBlock(b.BlockID, b.CloudID) {
				t.Errorf("%+v laid on %+v lacks %+v", c, from.Blocks, b)
			}
		}
	}
	if c := PlaceChange(from, from.Clone()); c != nil {
		t.Errorf("two equal records differ by %+v", c)
	}
}

func TestImageApplyChange(t *testing.T) {
	im := NewImage()
	c := addChange("f", "s1")
	c.Segments = []*Segment{seg("s1")}
	if err := im.Apply(c, "dev"); err != nil {
		t.Fatal(err)
	}
	if im.Lookup("f").Current() == nil {
		t.Fatal("snapshot not installed")
	}
	if _, ok := im.Segment("s1"); !ok {
		t.Fatal("segment not upserted")
	}
	if err := im.Apply(delChange("f"), "dev"); err != nil {
		t.Fatal(err)
	}
	if cur := im.Lookup("f").Current(); cur == nil || !cur.Deleted {
		t.Fatal("tombstone not installed")
	}
	if err := im.Apply(&Change{Type: ChangeAdd, Path: "bad"}, "dev"); err == nil {
		t.Fatal("invalid change applied")
	}
}

// TestApplyDeleteStampsTombstoneTime is a regression test: ScanLocal
// used to record ChangeDelete with a zero Time, so every committed
// tombstone carried the zero ModTime — a deleted-then-recreated path
// looked infinitely old to anything ordering versions by timestamp.
// The tombstone must carry the change's observation time.
func TestApplyDeleteStampsTombstoneTime(t *testing.T) {
	im := NewImage()
	if err := im.Apply(addChange("f", "s1"), "dev"); err != nil {
		t.Fatal(err)
	}
	when := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	del := delChange("f")
	del.Time = when
	if err := im.Apply(del, "dev"); err != nil {
		t.Fatal(err)
	}
	cur := im.Lookup("f").Current()
	if cur == nil || !cur.Deleted {
		t.Fatal("tombstone not installed")
	}
	if !cur.ModTime.Equal(when) {
		t.Fatalf("tombstone ModTime = %v, want %v", cur.ModTime, when)
	}
	if cur.ModTime.IsZero() {
		t.Fatal("tombstone carries the zero time")
	}
}

func TestChangedFileListCoalesces(t *testing.T) {
	l := NewChangedFileList()
	if l.Len() != 0 {
		t.Fatal("new list not empty")
	}
	must(t, l.Record(addChange("a", "s1")))
	must(t, l.Record(addChange("b", "s2")))
	must(t, l.Record(addChange("a", "s3"))) // coalesce: replaces first
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	got := l.Drain()
	if got[0].Path != "a" || got[1].Path != "b" {
		t.Fatalf("order = %v,%v", got[0].Path, got[1].Path)
	}
	if got[0].Snapshot.SegmentIDs[0] != "s3" {
		t.Fatal("coalescing kept the stale change")
	}
}

func TestChangedFileListAddThenDelete(t *testing.T) {
	l := NewChangedFileList()
	must(t, l.Record(addChange("a", "s1")))
	must(t, l.Record(delChange("a")))
	got := l.Drain()
	if len(got) != 1 || got[0].Type != ChangeDelete {
		t.Fatalf("got %+v, want single delete", got)
	}
	if l.Len() != 0 {
		t.Fatal("Drain did not clear")
	}
}

func TestChangedFileListRejectsInvalid(t *testing.T) {
	l := NewChangedFileList()
	if err := l.Record(&Change{Type: ChangeAdd, Path: ""}); err == nil {
		t.Fatal("invalid change recorded")
	}
}

func TestRequeuePreservesNewerChanges(t *testing.T) {
	l := NewChangedFileList()
	must(t, l.Record(addChange("a", "old")))
	must(t, l.Record(addChange("b", "b1")))
	drained := l.Drain()
	// Meanwhile a newer change to "a" arrives.
	must(t, l.Record(addChange("a", "new")))
	l.Requeue(drained)
	got := l.Drain()
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	byPath := map[string]*Change{}
	for _, c := range got {
		byPath[c.Path] = c
	}
	if byPath["a"].Snapshot.SegmentIDs[0] != "new" {
		t.Fatal("requeue overwrote a newer change")
	}
	if byPath["b"].Snapshot.SegmentIDs[0] != "b1" {
		t.Fatal("requeued change lost")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
