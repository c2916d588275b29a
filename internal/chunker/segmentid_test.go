package chunker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestSegmentIDMatchesSHA256 holds SegmentID to crypto/sha256 on every
// length 0–2048 and on random unaligned slices of up to 8 MB.
func TestSegmentIDMatchesSHA256(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	buf := make([]byte, 8<<20+64)
	rng.Read(buf)
	for n := 0; n <= 2048; n++ {
		data := buf[n%61 : n%61+n]
		if got, want := SegmentID(data), referenceID(data); got != want {
			t.Fatalf("len %d: SegmentID = %s, crypto/sha256 = %s", n, got, want)
		}
	}
	for i := 0; i < 12; i++ {
		n := rng.Intn(8<<20 + 1)
		off := rng.Intn(len(buf) - n + 1)
		data := buf[off : off+n]
		if got, want := SegmentID(data), referenceID(data); got != want {
			t.Fatalf("slice [%d:+%d]: SegmentID = %s, crypto/sha256 = %s", off, n, got, want)
		}
	}
}

func referenceID(data []byte) string {
	d := sha256.Sum256(data)
	return hex.EncodeToString(d[:])
}

// FuzzSegmentID holds SegmentID to crypto/sha256 on arbitrary input.
func FuzzSegmentID(f *testing.F) {
	f.Add([]byte("abc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := SegmentID(data), referenceID(data); got != want {
			t.Fatalf("len %d: SegmentID = %s, crypto/sha256 = %s", len(data), got, want)
		}
	})
}

// TestIDsMatchesSerial checks that the parallel IDs returns, in order,
// what SegmentID does one segment at a time — for no segments, one,
// and many more than there are workers, of very different sizes so the
// workers finish out of order.
func TestIDsMatchesSerial(t *testing.T) {
	data := randomData(41, 3<<20)
	rng := rand.New(rand.NewSource(43))
	for _, count := range []int{0, 1, 2, 3, runtime.GOMAXPROCS(0) + 1, 64} {
		segs := make([]Segment, count)
		for i := range segs {
			n := rng.Intn(len(data) / 16)
			if i%7 == 0 {
				n = rng.Intn(len(data))
			}
			off := rng.Intn(len(data) - n + 1)
			segs[i] = Segment{Offset: int64(off), Data: data[off : off+n]}
		}
		got := IDs(segs)
		if len(got) != count {
			t.Fatalf("%d segments: IDs returned %d", count, len(got))
		}
		for i, s := range segs {
			if want := SegmentID(s.Data); got[i] != want {
				t.Fatalf("%d segments: IDs[%d] = %s, SegmentID = %s", count, i, got[i], want)
			}
		}
	}
}

// idSink keeps the benchmarked call's result live.
var idSink string

func BenchmarkSegmentID(b *testing.B) {
	for _, size := range []int{100 << 10, 4 << 20} {
		data := randomData(1, size)
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				idSink = SegmentID(data)
			}
		})
	}
}
