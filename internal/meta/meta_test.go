package meta

import (
	"testing"
	"time"
)

func snap(path, device string, segIDs ...string) *Snapshot {
	var size int64
	for range segIDs {
		size += 100
	}
	return &Snapshot{
		Path: path, Device: device, Size: size,
		ModTime: time.Unix(1000, 0), SegmentIDs: segIDs,
	}
}

func seg(id string, blocks ...BlockLocation) *Segment {
	return &Segment{ID: id, Length: 100, K: 3, N: 10, Blocks: blocks}
}

// segOf and fileOf fetch pool/tree entries directly (nil if absent).
func segOf(im *Image, id string) *Segment {
	s, _ := im.Segment(id)
	return s
}

func fileOf(im *Image, p string) *FileEntry { return im.Lookup(p) }

func TestBlockName(t *testing.T) {
	if got := BlockName("abc", 7); got != "abc.7" {
		t.Fatalf("BlockName = %q", got)
	}
}

func TestSegmentBlockOps(t *testing.T) {
	s := seg("s1")
	s.AddBlock(0, "c1")
	s.AddBlock(1, "c2")
	s.AddBlock(0, "c1") // duplicate ignored
	if len(s.Blocks) != 2 {
		t.Fatalf("Blocks = %v", s.Blocks)
	}
	if !s.HasBlock(0, "c1") || s.HasBlock(0, "c2") {
		t.Fatal("HasBlock wrong")
	}
	if got := s.BlocksOn("c1"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("BlocksOn(c1) = %v", got)
	}
	if removed := s.RemoveBlocksOn("c1"); removed != 1 {
		t.Fatalf("RemoveBlocksOn = %d", removed)
	}
	if s.HasBlock(0, "c1") {
		t.Fatal("block survived removal")
	}
}

func TestSnapshotContentEquals(t *testing.T) {
	a := snap("f", "d1", "s1", "s2")
	b := snap("f", "d2", "s1", "s2") // different device, same content
	if !a.ContentEquals(b) {
		t.Fatal("content-equal snapshots reported different")
	}
	c := snap("f", "d1", "s1", "s3")
	if a.ContentEquals(c) {
		t.Fatal("different segments reported equal")
	}
	var nilSnap *Snapshot
	if nilSnap.ContentEquals(a) || a.ContentEquals(nil) {
		t.Fatal("nil comparison wrong")
	}
	if !nilSnap.ContentEquals(nil) {
		t.Fatal("nil == nil should hold")
	}
	del := snap("f", "d1", "s1", "s2")
	del.Deleted = true
	if a.ContentEquals(del) {
		t.Fatal("tombstone equal to live snapshot")
	}
}

func TestImageCloneIndependence(t *testing.T) {
	im := NewImage()
	im.SetSnapshot(snap("a.txt", "d1", "s1"))
	im.UpsertSegment(seg("s1", BlockLocation{BlockID: 0, CloudID: "c1"}))
	cl := im.Clone()
	cl.SetSnapshot(snap("a.txt", "d2", "s9"))
	segOf(cl, "s1").AddBlock(5, "c5")
	if im.Lookup("a.txt").Current().Device != "d1" {
		t.Fatal("clone mutation leaked into original (files)")
	}
	if segOf(im, "s1").HasBlock(5, "c5") {
		t.Fatal("clone mutation leaked into original (segments)")
	}
}

func TestPathsExcludesTombstones(t *testing.T) {
	im := NewImage()
	im.SetSnapshot(snap("b.txt", "d1", "s1"))
	im.SetSnapshot(snap("a.txt", "d1", "s2"))
	im.Tombstone("b.txt", "d1", time.Unix(0, 0))
	got := im.Paths()
	if len(got) != 1 || got[0] != "a.txt" {
		t.Fatalf("Paths = %v", got)
	}
}

func TestUpsertSegmentMergesBlocks(t *testing.T) {
	im := NewImage()
	im.UpsertSegment(seg("s1", BlockLocation{BlockID: 0, CloudID: "c1"}))
	im.UpsertSegment(seg("s1", BlockLocation{BlockID: 1, CloudID: "c2"}))
	s := segOf(im, "s1")
	if len(s.Blocks) != 2 {
		t.Fatalf("blocks = %v", s.Blocks)
	}
}

func TestRecountRefsAndDedup(t *testing.T) {
	im := NewImage()
	// Two files share segment s1 — dedup via refcounting.
	im.SetSnapshot(snap("a", "d", "s1", "s2"))
	im.SetSnapshot(snap("b", "d", "s1"))
	im.UpsertSegment(seg("s1"))
	im.UpsertSegment(seg("s2"))
	im.UpsertSegment(seg("dead"))
	dead := im.RecountRefs()
	if segOf(im, "s1").RefCount != 2 {
		t.Fatalf("s1 refcount = %d, want 2", segOf(im, "s1").RefCount)
	}
	if segOf(im, "s2").RefCount != 1 {
		t.Fatalf("s2 refcount = %d, want 1", segOf(im, "s2").RefCount)
	}
	if len(dead) != 1 || dead[0] != "dead" {
		t.Fatalf("dead = %v", dead)
	}
	im.DropSegments(dead)
	if _, ok := im.Segment("dead"); ok {
		t.Fatal("dead segment not dropped")
	}
	// Deleting file b drops s1 to 1.
	im.Tombstone("b", "d", time.Unix(0, 0))
	im.RecountRefs()
	if segOf(im, "s1").RefCount != 1 {
		t.Fatalf("s1 refcount after delete = %d, want 1", segOf(im, "s1").RefCount)
	}
}

func TestRefCountIncludesConflictCopies(t *testing.T) {
	im := NewImage()
	im.SetEntry(&FileEntry{Path: "f", Snapshots: []*Snapshot{
		snap("f", "d1", "s1"), snap("f", "d2", "s2"),
	}})
	im.UpsertSegment(seg("s1"))
	im.UpsertSegment(seg("s2"))
	im.RecountRefs()
	if segOf(im, "s1").RefCount != 1 || segOf(im, "s2").RefCount != 1 {
		t.Fatal("conflict copies must keep their segments referenced")
	}
}

func TestImageEncodeDecodeRoundTrip(t *testing.T) {
	im := NewImage()
	im.Version = 42
	im.Device = "laptop"
	im.SetSnapshot(snap("dir/a.txt", "laptop", "s1"))
	im.UpsertSegment(seg("s1", BlockLocation{BlockID: 0, CloudID: "c1"}, BlockLocation{BlockID: 1, CloudID: "c2"}))
	im.RecountRefs()
	data, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 42 || got.Device != "laptop" {
		t.Fatalf("header = %d/%s", got.Version, got.Device)
	}
	if got.Lookup("dir/a.txt").Current().SegmentIDs[0] != "s1" {
		t.Fatal("file entry lost")
	}
	if !segOf(got, "s1").HasBlock(1, "c2") {
		t.Fatal("segment blocks lost")
	}
}

func TestDecodeImageEmptyObject(t *testing.T) {
	got, err := DecodeImage([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.files == nil || got.segments == nil {
		t.Fatal("maps not initialized on decode")
	}
	if _, err := DecodeImage([]byte(`not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
	// A JSON null would decode to a nil pointer every walker dereferences.
	for _, data := range []string{
		`{"files":{"a":null}}`,
		`{"files":{"a":{"path":"a","snapshots":[null]}}}`,
		`{"segments":{"s":null}}`,
	} {
		if _, err := DecodeImage([]byte(data)); err == nil {
			t.Errorf("DecodeImage(%s) accepted a null", data)
		}
	}
}

func TestVersionStampRoundTrip(t *testing.T) {
	im := NewImage()
	im.Version = 7
	im.Device = "phone"
	data, err := im.Stamp().Encode()
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeVersionStamp(data)
	if err != nil {
		t.Fatal(err)
	}
	if v != (VersionStamp{Device: "phone", Version: 7}) {
		t.Fatalf("stamp = %+v", v)
	}
	if _, err := DecodeVersionStamp([]byte("x")); err == nil {
		t.Fatal("bad stamp accepted")
	}
}
