package meta

import (
	"bytes"
	"testing"
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
