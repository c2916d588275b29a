package deltasync

import (
	"testing"

	"unidrive/internal/meta"
	"unidrive/internal/metacrypt"
)

// FuzzChainExtend feeds arbitrary delta bodies — what a cloud serves or
// a crash leaves as the plaintext of a tail or a chunk — through the
// one door to an image: decodeDelta, then extend onto a cursor at base
// v5 holding v6 (dA) and v7 (dB). Nothing may panic; a refused input
// leaves the cursor where it was; an accepted one is contiguous from
// it, of its lineage, and its image stands at its last record. The
// seed corpus (testdata/fuzz/FuzzChainExtend) holds a valid chain, a
// gap, an overlap by another device, a foreign BaseVersion, a null
// change and a truncated line.
func FuzzChainExtend(f *testing.F) {
	cipher, err := metacrypt.New(metacrypt.DES, "test-passphrase")
	if err != nil {
		f.Fatal(err)
	}
	s := New(newRig(1).clouds, cipher, Config{Device: "d1"})
	base := meta.NewImage()
	base.Version = 5
	cur, err := startChain(base, 5).extend([]Record{
		{Version: 6, Device: "dA", BaseVersion: 5, Changes: []*meta.Change{addChange("f1", "s1")}},
		{Version: 7, Device: "dB", BaseVersion: 5, Changes: []*meta.Change{addChange("f2", "s2")}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _ = s.decodeDelta(body) // as served: almost never opens, must not panic
		sealed, err := s.cipher.Seal(body)
		if err != nil {
			t.Skip()
		}
		records, err := s.decodeDelta(sealed)
		if err != nil {
			return
		}
		_, _ = Replay(cur.img, records)
		next, err := cur.extend(records)
		if cur.head() != 7 || len(cur.records) != 2 || cur.records[1].Device != "dB" {
			t.Fatal("extend moved the cursor it was called on")
		}
		if err != nil {
			if next.head() != 7 || len(next.records) != 2 || next.img != cur.img {
				t.Fatalf("a refused extend returned a moved cursor: v%d, %d records", next.head(), len(next.records))
			}
			return
		}
		if next.start != 5 || next.lineage != 5 || len(next.records) < 2 {
			t.Fatalf("accepted cursor: start %d, lineage %d, %d records", next.start, next.lineage, len(next.records))
		}
		for i, r := range next.records {
			if r.Version != 6+int64(i) || r.BaseVersion != 5 {
				t.Fatalf("record %d is v%d of lineage %d: not contiguous from the cursor", i, r.Version, r.BaseVersion)
			}
		}
		last := next.records[len(next.records)-1]
		if next.head() != last.Version || next.img.Device != last.Device {
			t.Fatalf("image stands at v%d by %s, last record is v%d by %s", next.head(), next.img.Device, last.Version, last.Device)
		}
		if _, err := next.img.Encode(); err != nil {
			t.Fatalf("accepted image does not encode: %v", err)
		}
	})
}
