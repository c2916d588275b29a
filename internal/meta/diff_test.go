package meta

import (
	"testing"
	"time"
)

// base builds the common ancestor image the diff test starts from.
func base() *Image {
	im := NewImage()
	im.Version = 1
	im.SetSnapshot(snap("shared.txt", "d0", "s0"))
	im.SetSnapshot(snap("mine.txt", "d0", "sm"))
	im.SetSnapshot(snap("theirs.txt", "d0", "st"))
	im.UpsertSegment(seg("s0"))
	im.UpsertSegment(seg("sm"))
	im.UpsertSegment(seg("st"))
	im.RecountRefs()
	return im
}

func TestDiffImages(t *testing.T) {
	vo := base()
	vl := vo.Clone()
	vl.SetSnapshot(snap("mine.txt", "d1", "sm2"))
	vl.SetSnapshot(snap("new.txt", "d1", "sn"))
	vl.Tombstone("theirs.txt", "d1", time.Unix(0, 0))
	d := DiffImages(vo, vl)
	if len(d) != 3 {
		t.Fatalf("diff paths = %v, want 3", d.Paths())
	}
	if e := d["mine.txt"]; e.Before == nil || e.After == nil {
		t.Fatal("edit should have before and after")
	}
	if e := d["new.txt"]; e.Before != nil || e.After == nil {
		t.Fatal("add should have only after")
	}
	if e := d["theirs.txt"]; e.After == nil || !e.After.Deleted {
		t.Fatal("delete should show a tombstone after")
	}
	if len(DiffImages(vo, vo.Clone())) != 0 {
		t.Fatal("identical images must have empty diff")
	}
}
