package meta

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// applySlow is the reference semantics ApplyCOW must match: deep
// clone, Apply every change, recount refs, drop the dead.
func applySlow(t *testing.T, im *Image, changes []*Change, device string) *Image {
	t.Helper()
	out := im.Clone()
	for _, c := range changes {
		if err := out.Apply(c, device); err != nil {
			t.Fatal(err)
		}
	}
	out.DropSegments(out.RecountRefs())
	return out
}

func imagesEquivalent(a, b *Image) error {
	if a.NumFiles() != b.NumFiles() {
		return fmt.Errorf("file counts differ: %d vs %d", a.NumFiles(), b.NumFiles())
	}
	for p, ea := range a.AllFiles() {
		eb := b.Lookup(p)
		if eb == nil {
			return fmt.Errorf("path %q missing", p)
		}
		if !reflect.DeepEqual(ea, eb) {
			return fmt.Errorf("entry %q differs:\n  %+v\n  %+v", p, ea, eb)
		}
	}
	if len(a.SegmentIDs()) != len(b.SegmentIDs()) {
		return fmt.Errorf("segment counts differ: %d vs %d", len(a.SegmentIDs()), len(b.SegmentIDs()))
	}
	for id, sa := range a.AllSegments() {
		sb := segOf(b, id)
		if sb == nil {
			return fmt.Errorf("segment %q missing", id)
		}
		if !reflect.DeepEqual(sa, sb) {
			return fmt.Errorf("segment %q differs:\n  %+v\n  %+v", id, sa, sb)
		}
	}
	return nil
}

// TestApplyCOWMatchesSlowPath drives random change batches through
// both implementations and requires identical results, while also
// checking the input image is never mutated.
func TestApplyCOWMatchesSlowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	im := NewImage()
	// Seed state through the slow path so refcounts are exact.
	var seedChanges []*Change
	for i := 0; i < 30; i++ {
		segID := fmt.Sprintf("seg%02d", i)
		ch := addChange(fmt.Sprintf("f%02d.txt", i), segID)
		ch.Segments = []*Segment{seg(segID, BlockLocation{BlockID: 0, CloudID: "c1"}, BlockLocation{BlockID: 1, CloudID: "c2"})}
		seedChanges = append(seedChanges, ch)
	}
	im = applySlow(t, im, seedChanges, "seeder")
	im.Version, im.Device = 1, "seeder"

	for round := 0; round < 50; round++ {
		var batch []*Change
		for n := rng.Intn(6) + 1; n > 0; n-- {
			i := rng.Intn(30)
			path := fmt.Sprintf("f%02d.txt", i)
			switch rng.Intn(8) {
			case 0: // edit onto a fresh segment
				segID := fmt.Sprintf("seg-r%d-%d", round, n)
				ch := &Change{Type: ChangeEdit, Path: path,
					Snapshot: snap(path, "dev", segID), Time: time.Unix(int64(round), 0)}
				ch.Segments = []*Segment{seg(segID, BlockLocation{BlockID: 0, CloudID: "c3"})}
				batch = append(batch, ch)
			case 1: // edit that dedups onto an existing segment
				shared := fmt.Sprintf("seg%02d", rng.Intn(30))
				batch = append(batch, &Change{Type: ChangeEdit, Path: path,
					Snapshot: snap(path, "dev", shared), Time: time.Unix(int64(round), 0)})
			case 2:
				batch = append(batch, delChange(path))
			case 3: // re-add two segments, one shared one new
				segID := fmt.Sprintf("seg-r%d-%db", round, n)
				shared := fmt.Sprintf("seg%02d", rng.Intn(30))
				ch := &Change{Type: ChangeAdd, Path: path,
					Snapshot: snap(path, "dev", segID, shared), Time: time.Unix(int64(round), 0)}
				ch.Segments = []*Segment{seg(segID, BlockLocation{BlockID: 2, CloudID: "c1"})}
				batch = append(batch, ch)
			case 4: // a place over an existing block ID
				batch = append(batch, &Change{Type: ChangePlace, Path: fmt.Sprintf("seg%02d", i),
					Place: []BlockLocation{{BlockID: 0, CloudID: "c4", Checksum: 4}, {BlockID: 5, CloudID: "c5", Checksum: 5}}})
			case 5: // a drop
				batch = append(batch, &Change{Type: ChangePlace, Path: fmt.Sprintf("seg%02d", i), Drop: []int{1}})
			case 6: // a thin flip
				batch = append(batch, &Change{Type: ChangePlace, Path: fmt.Sprintf("seg%02d", i), Thin: rng.Intn(2) == 0})
			case 7: // a record for a segment a later change of the batch drops
				segID := fmt.Sprintf("seg%02d", i)
				if cur := im.Lookup(path).Current(); cur != nil && !cur.Deleted {
					segID = cur.SegmentIDs[0]
				}
				batch = append(batch, &Change{Type: ChangePlace, Path: segID,
					Place: []BlockLocation{{BlockID: 3, CloudID: "c3", Checksum: 3}}, Thin: true}, delChange(path))
			}
		}
		wantInput := im.Clone()
		fast, err := im.ApplyCOW(batch, "dev")
		if err != nil {
			t.Fatal(err)
		}
		slow := applySlow(t, im, batch, "dev")
		if err := imagesEquivalent(fast, slow); err != nil {
			t.Fatalf("round %d: COW and slow path diverged: %v", round, err)
		}
		if err := imagesEquivalent(im, wantInput); err != nil {
			t.Fatalf("round %d: ApplyCOW mutated its input: %v", round, err)
		}
		im = fast // chain: COW output feeds the next round's input
	}
}

// TestApplyCOWPlacePreservesRefCount pins the placement rule: a
// placement record moves locations and keeps the live refcount, and a
// record for a segment the image no longer holds changes nothing.
func TestApplyCOWPlacePreservesRefCount(t *testing.T) {
	im := NewImage()
	ch := addChange("a.txt", "s1")
	ch.Segments = []*Segment{seg("s1", BlockLocation{BlockID: 0, CloudID: "c1"}, BlockLocation{BlockID: 1, CloudID: "c2"})}
	base, err := im.ApplyCOW([]*Change{ch}, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if segOf(base, "s1").RefCount != 1 {
		t.Fatalf("RefCount = %d, want 1", segOf(base, "s1").RefCount)
	}
	out, err := base.ApplyCOW([]*Change{
		{Type: ChangePlace, Path: "s1", Place: []BlockLocation{{BlockID: 0, CloudID: "c9", Checksum: 9}}, Drop: []int{1}, Thin: true},
		{Type: ChangePlace, Path: "gone", Place: []BlockLocation{{BlockID: 0, CloudID: "c9", Checksum: 9}}},
	}, "dev")
	if err != nil {
		t.Fatal(err)
	}
	got := segOf(out, "s1")
	if got.RefCount != 1 {
		t.Fatalf("the placement lost the refcount: %d", got.RefCount)
	}
	if want := []BlockLocation{{BlockID: 0, CloudID: "c9", Checksum: 9}}; !reflect.DeepEqual(got.Blocks, want) || !got.Thin {
		t.Fatalf("placed %+v (thin %v), want %+v, thin", got.Blocks, got.Thin, want)
	}
	if _, alive := out.Segment("gone"); alive {
		t.Fatal("a placement record brought a segment into the pool")
	}
	if b := segOf(base, "s1"); len(b.Blocks) != 2 || b.Thin {
		t.Fatalf("the placement leaked into the input image: %+v", b)
	}
}

// TestApplyCOWSharesUntouchedEntries pins the point of COW: unchanged
// entries and segments are the same pointers, not copies.
func TestApplyCOWSharesUntouchedEntries(t *testing.T) {
	im := NewImage()
	var chs []*Change
	for i := 0; i < 4; i++ {
		ch := addChange(fmt.Sprintf("f%d", i), fmt.Sprintf("s%d", i))
		ch.Segments = []*Segment{seg(fmt.Sprintf("s%d", i), BlockLocation{BlockID: 0, CloudID: "c1"})}
		chs = append(chs, ch)
	}
	base, err := im.ApplyCOW(chs, "dev")
	if err != nil {
		t.Fatal(err)
	}
	out, err := base.ApplyCOW([]*Change{delChange("f0")}, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if fileOf(out, "f1") != fileOf(base, "f1") || segOf(out, "s1") != segOf(base, "s1") {
		t.Fatal("untouched entries were copied, not shared")
	}
	if fileOf(out, "f0") == fileOf(base, "f0") {
		t.Fatal("touched entry is still shared")
	}
	if _, alive := out.Segment("s0"); alive {
		t.Fatal("orphaned segment survived the delete")
	}
	if _, alive := base.Segment("s0"); !alive {
		t.Fatal("delete leaked into the input image")
	}
}
