package chunker

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, theta int) *Chunker {
	t.Helper()
	c, err := New(theta)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomData(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestNewValidation(t *testing.T) {
	if _, err := New(10); err == nil {
		t.Fatal("New(10) should fail below MinTheta")
	}
	c := mustNew(t, 4096)
	if c.theta != 4096 || c.minSize != 2048 || c.maxSize != 6144 {
		t.Fatalf("bounds = (%d, %d, %d)", c.minSize, c.theta, c.maxSize)
	}
}

func TestSplitTilesInput(t *testing.T) {
	c := mustNew(t, 1024)
	data := randomData(1, 100_000)
	segs := c.Split(data)
	var rebuilt []byte
	var offset int64
	for _, s := range segs {
		if s.Offset != offset {
			t.Fatalf("segment at offset %d, want %d", s.Offset, offset)
		}
		rebuilt = append(rebuilt, s.Data...)
		offset += int64(len(s.Data))
	}
	if !bytes.Equal(rebuilt, data) {
		t.Fatal("concatenated segments differ from input")
	}
}

func TestSegmentSizeBounds(t *testing.T) {
	c := mustNew(t, 1024)
	data := randomData(2, 200_000)
	segs := c.Split(data)
	if len(segs) < 50 {
		t.Fatalf("only %d segments for 200KB at θ=1KB; chunking inert", len(segs))
	}
	for i, s := range segs {
		if len(s.Data) > c.maxSize {
			t.Fatalf("segment %d size %d exceeds max %d", i, len(s.Data), c.maxSize)
		}
		if i < len(segs)-1 && len(s.Data) <= c.minSize {
			t.Fatalf("non-final segment %d size %d not above min %d", i, len(s.Data), c.minSize)
		}
	}
}

func TestMeanSegmentSizeNearTheta(t *testing.T) {
	const theta = 2048
	c := mustNew(t, theta)
	data := randomData(3, 1<<20)
	segs := c.Split(data)
	mean := float64(len(data)) / float64(len(segs))
	if mean < theta/2 || mean > theta*2 {
		t.Fatalf("mean segment size %.0f too far from θ=%d", mean, theta)
	}
}

func TestSplitDeterministic(t *testing.T) {
	c := mustNew(t, 1024)
	data := randomData(4, 50_000)
	a := c.Split(data)
	b := c.Split(data)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic segment count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Offset != b[i].Offset || !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("segment %d differs between runs", i)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	c := mustNew(t, 1024)
	segs := c.Split(nil)
	if len(segs) != 1 || len(segs[0].Data) != 0 {
		t.Fatalf("Split(nil) = %v, want single empty segment", segs)
	}
	if SegmentID(segs[0].Data) != SegmentID(nil) {
		t.Fatal("empty segment ID unstable")
	}
}

func TestTinyInputSingleSegment(t *testing.T) {
	c := mustNew(t, 4096)
	data := []byte("tiny")
	segs := c.Split(data)
	if len(segs) != 1 || !bytes.Equal(segs[0].Data, data) {
		t.Fatalf("Split(tiny) = %v", segs)
	}
}

func TestEditLocality(t *testing.T) {
	// The reason for content-based segmentation (paper §6.1): a local
	// edit must change only a bounded number of segments.
	c := mustNew(t, 1024)
	data := randomData(5, 300_000)
	before := c.Split(data)

	edited := append([]byte(nil), data...)
	edited[150_000] ^= 0xff // flip one byte in the middle

	after := c.Split(edited)
	beforeIDs := make(map[string]bool, len(before))
	for _, s := range before {
		beforeIDs[SegmentID(s.Data)] = true
	}
	changed := 0
	for _, s := range after {
		if !beforeIDs[SegmentID(s.Data)] {
			changed++
		}
	}
	if changed > 3 {
		t.Fatalf("single-byte edit changed %d of %d segments; locality broken", changed, len(after))
	}
	if changed == 0 {
		t.Fatal("edit changed no segment; hashing inert")
	}
}

func TestInsertionLocality(t *testing.T) {
	// Insertions shift all following bytes; content-defined
	// boundaries must re-align so most segments keep their identity.
	c := mustNew(t, 1024)
	data := randomData(6, 300_000)
	before := c.Split(data)

	ins := append([]byte(nil), data[:100_000]...)
	ins = append(ins, []byte("INSERTED CONTENT BLOCK")...)
	ins = append(ins, data[100_000:]...)
	after := c.Split(ins)

	beforeIDs := make(map[string]bool, len(before))
	for _, s := range before {
		beforeIDs[SegmentID(s.Data)] = true
	}
	shared := 0
	for _, s := range after {
		if beforeIDs[SegmentID(s.Data)] {
			shared++
		}
	}
	if frac := float64(shared) / float64(len(after)); frac < 0.8 {
		t.Fatalf("only %.0f%% of segments survive an insertion; want >80%%", frac*100)
	}
}

func TestIdenticalContentSameID(t *testing.T) {
	// Dedup property: equal content gives equal segment names even
	// in different files/positions.
	a := SegmentID([]byte("same bytes"))
	b := SegmentID([]byte("same bytes"))
	if a != b {
		t.Fatal("equal content produced different IDs")
	}
	if a == SegmentID([]byte("other bytes")) {
		t.Fatal("different content produced equal IDs")
	}
	if len(a) != 64 {
		t.Fatalf("ID length %d, want 64 hex chars (SHA-256)", len(a))
	}
}

func TestSplitPropertyTiling(t *testing.T) {
	c := mustNew(t, 512)
	f := func(seed int64, sizeRaw uint16) bool {
		data := randomData(seed, int(sizeRaw))
		segs := c.Split(data)
		var total int
		for i, s := range segs {
			if int64(total) != s.Offset {
				return false
			}
			total += len(s.Data)
			if len(s.Data) > c.maxSize {
				return false
			}
			if i < len(segs)-1 && len(segs) > 1 && len(s.Data) == 0 {
				return false
			}
		}
		return total == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompressibleContentStillBounded(t *testing.T) {
	// All-zero data defeats content-defined boundaries; max-size
	// forcing must still bound segments.
	c := mustNew(t, 1024)
	data := make([]byte, 100_000)
	segs := c.Split(data)
	for i, s := range segs {
		if len(s.Data) > c.maxSize {
			t.Fatalf("segment %d size %d over max on zero data", i, len(s.Data))
		}
	}
}

func TestGearTableStable(t *testing.T) {
	// Boundaries are part of the on-cloud format; the table must
	// never change. Pin a few entries.
	if gearTable[0] == 0 || gearTable[0] == gearTable[1] {
		t.Fatal("gear table degenerate")
	}
	want0 := gearTable[0]
	rebuilt := buildGearTable()
	if rebuilt[0] != want0 || rebuilt[255] != gearTable[255] {
		t.Fatal("gear table not reproducible")
	}
}

func BenchmarkSplit4MBTheta4MB(b *testing.B) {
	c, err := New(4 << 20)
	if err != nil {
		b.Fatal(err)
	}
	data := randomData(1, 16<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Split(data)
	}
}
