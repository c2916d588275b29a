package meta

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// FuzzDecodeImage feeds arbitrary bytes to the image decoder, the door
// every base and checkpoint image comes in by. It must never panic; an
// image it accepts is in the current format (no location without a
// checksum, no segment named by SHA-1), and encodes to a fixed point:
// decoding its encoding encodes the same bytes.
func FuzzDecodeImage(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":3,"device":"d","files":{"a":{"path":"a","snapshots":[{"path":"a","size":1,"modTime":"2024-01-02T03:04:05+01:00","device":"d","segmentIds":["s"]}]}},"segments":{"s":{"id":"s","length":1,"k":3,"n":10,"refCount":1,"blocks":[{"blockId":0,"cloudId":"c0","crc":7}]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := DecodeImage(data)
		if err != nil {
			return
		}
		for id, seg := range im.AllSegments() {
			if err := checkSegments(seg); err != nil {
				t.Fatalf("accepted segment %s: %v", id, err)
			}
		}
		for p, e := range im.AllFiles() {
			for _, snap := range e.Snapshots {
				if err := checkIDs(snap.SegmentIDs...); err != nil {
					t.Fatalf("accepted snapshot of %s: %v", p, err)
				}
			}
		}
		first, err := im.Encode()
		if err != nil {
			t.Fatalf("accepted image does not encode: %v", err)
		}
		again, err := DecodeImage(first)
		if err != nil {
			t.Fatalf("encoded image does not decode: %v\n%s", err, first)
		}
		second, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", first, second)
		}
	})
}

// FuzzDecodeChange feeds arbitrary bytes to the change decoder, the
// door every delta record, checkpoint delta and journal intent comes in
// by, then validates what it accepts and applies it to a seeded image.
// Nothing may panic; a whole-record relocate is never accepted; and an
// applied change leaves every refcount what a full recount says, the
// input image untouched.
func FuzzDecodeChange(f *testing.F) {
	id := func(c byte) string { return strings.Repeat(string(c), 64) }
	when := time.Unix(10, 0).UTC()
	base, err := NewImage().ApplyCOW([]*Change{
		{Type: ChangeAdd, Path: "a", Snapshot: &Snapshot{Path: "a", Size: 1, ModTime: when, Device: "d", SegmentIDs: []string{id('a'), id('b')}},
			Segments: []*Segment{
				{ID: id('a'), Length: 1, K: 3, N: 5, Blocks: []BlockLocation{{BlockID: 0, CloudID: "c0", Checksum: 1}, {BlockID: 1, CloudID: "c1", Checksum: 2}}},
				{ID: id('b'), Length: 1, K: 3, N: 5, Blocks: []BlockLocation{{BlockID: 0, CloudID: "c0", Checksum: 3}}},
			}, Time: when},
		{Type: ChangeAdd, Path: "b", Snapshot: &Snapshot{Path: "b", Size: 1, ModTime: when, Device: "d", SegmentIDs: []string{id('b')}}, Time: when},
	}, "d")
	if err != nil {
		f.Fatal(err)
	}
	seeds := []*Change{
		{Type: ChangeAdd, Path: "c", Snapshot: &Snapshot{Path: "c", Size: 1, ModTime: when, Device: "d", SegmentIDs: []string{id('c')}},
			Segments: []*Segment{{ID: id('c'), Length: 1, K: 3, N: 5, Blocks: []BlockLocation{{BlockID: 2, CloudID: "c2", Checksum: 4}}}}, Time: when},
		{Type: ChangeEdit, Path: "a", Snapshot: &Snapshot{Path: "a", Size: 1, ModTime: when, Device: "d", SegmentIDs: []string{id('b')}}, Time: when},
		{Type: ChangeDelete, Path: "b", Time: when},
		{Type: ChangePlace, Path: id('a'), Place: []BlockLocation{{BlockID: 1, CloudID: "c4", Checksum: 2}}, Drop: []int{0}, Thin: true},
	}
	for _, c := range seeds {
		data, err := c.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	relocate := []byte(`{"type":4,"path":"` + id('a') + `","segments":[{"id":"` + id('a') + `","length":1,"k":3,"n":5,"refCount":0,"blocks":[{"blockId":0,"cloudId":"c3","crc":1}]}],"time":"0001-01-01T00:00:00Z"}`)
	if err := json.Unmarshal(relocate, new(Change)); !errors.Is(err, ErrOldFormat) {
		f.Fatalf("a whole-record relocate decodes with %v, want ErrOldFormat", err)
	}
	f.Add(relocate)
	want, err := base.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := new(Change)
		if err := json.Unmarshal(data, c); err != nil {
			return
		}
		if c.Type == changeWholeRecord {
			t.Fatalf("accepted a whole-record relocate: %s", data)
		}
		if c.Validate() != nil {
			return
		}
		out, err := base.ApplyCOW([]*Change{c}, "fuzz")
		if err != nil {
			t.Fatalf("a valid change does not apply: %v", err)
		}
		if got, _ := base.Encode(); !bytes.Equal(got, want) {
			t.Fatal("ApplyCOW changed its input image")
		}
		recount := out.Clone()
		if dead := recount.RecountRefs(); len(dead) > 0 {
			t.Fatalf("segments %v kept without a reference", dead)
		}
		for id, seg := range out.AllSegments() {
			if r, _ := recount.Segment(id); seg.RefCount != r.RefCount {
				t.Fatalf("segment %s: refcount %d, a recount says %d", id, seg.RefCount, r.RefCount)
			}
		}
	})
}

// FuzzDecodeVersionStamp: the stamp decoder never panics, and a stamp
// it accepts round-trips through its encoding.
func FuzzDecodeVersionStamp(f *testing.F) {
	f.Add([]byte(`{"device":"alpha","version":7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeVersionStamp(data)
		if err != nil {
			return
		}
		enc, err := v.Encode()
		if err != nil {
			t.Fatalf("accepted stamp does not encode: %v", err)
		}
		if again, err := DecodeVersionStamp(enc); err != nil || again != v {
			t.Fatalf("stamp %+v round-trips to %+v (%v)", v, again, err)
		}
	})
}

// FuzzParseBlockName: a block file name the parser accepts as (s, b)
// is the name of a block it parses back to (s, b).
func FuzzParseBlockName(f *testing.F) {
	f.Add("0123abcd.4")
	f.Fuzz(func(t *testing.T, name string) {
		seg, block, ok := ParseBlockName(name)
		if !ok {
			return
		}
		if s, b, ok := ParseBlockName(BlockName(seg, block)); !ok || s != seg || b != block {
			t.Fatalf("%q parses to (%q, %d), whose name %q parses to (%q, %d, %v)",
				name, seg, block, BlockName(seg, block), s, b, ok)
		}
	})
}
