package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mustCoder(t *testing.T, k, n int) *Coder {
	t.Helper()
	c, err := NewCoder(k, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCoderValidation(t *testing.T) {
	tests := []struct {
		k, n    int
		wantErr bool
	}{
		{3, 10, false},
		{1, 1, false},
		{0, 5, true},
		{-1, 5, true},
		{5, 3, true},
		{128, 129, true}, // n + k > 256
	}
	for _, tt := range tests {
		_, err := NewCoder(tt.k, tt.n)
		if (err != nil) != tt.wantErr {
			t.Errorf("NewCoder(%d, %d) error = %v, wantErr %v", tt.k, tt.n, err, tt.wantErr)
		}
	}
}

// TestCoderForSharesOneCoder: every caller of a (k, n), from any
// goroutine, gets the same non-systematic coder; bad parameters are an
// error and cache nothing.
func TestCoderForSharesOneCoder(t *testing.T) {
	const callers = 16
	got := make([]*Coder, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := CoderFor(4, 11)
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("caller %d got coder %p, caller 0 got %p", i, c, got[0])
		}
	}
	if got[0].k != 4 || got[0].n != 11 {
		t.Fatalf("CoderFor(4, 11) = k %d, n %d", got[0].k, got[0].n)
	}
	if other, _ := CoderFor(4, 12); other == got[0] {
		t.Fatal("CoderFor(4, 12) returned the (4, 11) coder")
	}
	if _, err := CoderFor(5, 3); err == nil {
		t.Fatal("CoderFor(5, 3) succeeded")
	}
}

func TestEncodeDecodeAllBlocks(t *testing.T) {
	c := mustCoder(t, 3, 10)
	seg := []byte("the quick brown fox jumps over the lazy dog")
	blocks := c.Encode(seg)
	if len(blocks) != 10 {
		t.Fatalf("Encode produced %d blocks, want 10", len(blocks))
	}
	m := map[int][]byte{0: blocks[0], 1: blocks[1], 2: blocks[2]}
	got, err := c.Decode(m, len(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatalf("decoded %q, want %q", got, seg)
	}
}

func TestAnyKOfNRecover(t *testing.T) {
	const k, n = 3, 10
	c := mustCoder(t, k, n)
	rng := rand.New(rand.NewSource(7))
	seg := make([]byte, 1000)
	rng.Read(seg)
	blocks := c.Encode(seg)

	// Exhaustive over all C(10,3)=120 subsets.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for d := b + 1; d < n; d++ {
				m := map[int][]byte{a: blocks[a], b: blocks[b], d: blocks[d]}
				got, err := c.Decode(m, len(seg))
				if err != nil {
					t.Fatalf("decode subset {%d,%d,%d}: %v", a, b, d, err)
				}
				if !bytes.Equal(got, seg) {
					t.Fatalf("subset {%d,%d,%d} decoded wrong content", a, b, d)
				}
			}
		}
	}
}

func TestDecodePropertyRandomParamsAndLosses(t *testing.T) {
	f := func(seedRaw int64, kRaw, nRaw uint8, sizeRaw uint16) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		k := 1 + int(kRaw)%8
		n := k + int(nRaw)%12
		if n+k > 256 {
			return true
		}
		size := int(sizeRaw) % 4096
		c, err := NewCoder(k, n)
		if err != nil {
			return false
		}
		seg := make([]byte, size)
		rng.Read(seg)
		blocks := c.Encode(seg)
		// Pick a random subset of exactly k blocks.
		perm := rng.Perm(n)
		m := make(map[int][]byte, k)
		for _, idx := range perm[:k] {
			m[idx] = blocks[idx]
		}
		got, err := c.Decode(m, size)
		return err == nil && bytes.Equal(got, seg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDecodeFewerThanKFails(t *testing.T) {
	c := mustCoder(t, 3, 10)
	seg := []byte("short segment")
	blocks := c.Encode(seg)
	m := map[int][]byte{0: blocks[0], 5: blocks[5]}
	_, err := c.Decode(m, len(seg))
	if !errors.Is(err, ErrInsufficientBlocks) {
		t.Fatalf("err = %v, want ErrInsufficientBlocks", err)
	}
}

func TestDecodeExtraBlocksIgnored(t *testing.T) {
	c := mustCoder(t, 2, 6)
	seg := []byte("redundancy is fine")
	blocks := c.Encode(seg)
	m := make(map[int][]byte)
	for i, b := range blocks {
		m[i] = b
	}
	got, err := c.Decode(m, len(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatal("decode with all blocks failed")
	}
}

func TestNonSystematicBlocksHideContent(t *testing.T) {
	// The security rationale (paper §6.1): parity blocks must not be
	// verbatim source. With a Cauchy (no identity rows) encode
	// matrix, no block of the stored format may equal a source shard.
	c, err := CoderFor(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	seg := make([]byte, 3000)
	rng.Read(seg)
	blocks := c.Encode(seg)
	shard := c.ShardSize(len(seg))
	for i, b := range blocks {
		for j := 0; j < 3; j++ {
			src := seg[j*shard : (j+1)*shard]
			if bytes.Equal(b, src) {
				t.Fatalf("block %d equals source shard %d: code is not non-systematic", i, j)
			}
		}
	}
}

func TestEncodeBlocksSubsetMatchesFull(t *testing.T) {
	c := mustCoder(t, 4, 12)
	rng := rand.New(rand.NewSource(17))
	seg := make([]byte, 2048)
	rng.Read(seg)
	full := c.Encode(seg)
	subset := c.EncodeBlocks(seg, []int{11, 3, 7})
	if !bytes.Equal(subset[0], full[11]) || !bytes.Equal(subset[1], full[3]) || !bytes.Equal(subset[2], full[7]) {
		t.Fatal("EncodeBlocks output differs from full Encode")
	}
}

func TestEncodeBlocksOutOfRangePanics(t *testing.T) {
	c := mustCoder(t, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeBlocks with bad index did not panic")
		}
	}()
	c.EncodeBlocks([]byte("x"), []int{4})
}

func TestDecodeRejectsBadIndexAndSize(t *testing.T) {
	c := mustCoder(t, 2, 4)
	seg := []byte("abcdef")
	blocks := c.Encode(seg)
	if _, err := c.Decode(map[int][]byte{0: blocks[0], 9: blocks[1]}, len(seg)); err == nil {
		t.Fatal("out-of-range block index accepted")
	}
	if _, err := c.Decode(map[int][]byte{0: blocks[0], 1: blocks[1][:1]}, len(seg)); err == nil {
		t.Fatal("mismatched block size accepted")
	}
	if _, err := c.Decode(map[int][]byte{0: blocks[0], 1: blocks[1]}, 100); err == nil {
		t.Fatal("impossible original length accepted")
	}
}

func TestZeroLengthSegment(t *testing.T) {
	c := mustCoder(t, 3, 6)
	blocks := c.Encode(nil)
	if len(blocks) != 6 {
		t.Fatalf("Encode(nil) produced %d blocks", len(blocks))
	}
	for _, b := range blocks {
		if len(b) != 1 {
			t.Fatalf("zero-length segment should produce 1-byte shards, got %d", len(b))
		}
	}
	got, err := c.Decode(map[int][]byte{0: blocks[0], 2: blocks[2], 4: blocks[4]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d bytes from empty segment", len(got))
	}
}

func TestSegmentNotMultipleOfK(t *testing.T) {
	c := mustCoder(t, 3, 5)
	seg := []byte("10 bytes!!")
	blocks := c.Encode(seg)
	if len(blocks[0]) != 4 { // ceil(10/3)
		t.Fatalf("shard size = %d, want 4", len(blocks[0]))
	}
	got, err := c.Decode(map[int][]byte{1: blocks[1], 3: blocks[3], 4: blocks[4]}, len(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatal("padding not stripped correctly")
	}
}

func TestShardSize(t *testing.T) {
	c := mustCoder(t, 3, 10)
	tests := []struct{ segLen, want int }{
		{0, 1}, {1, 1}, {3, 1}, {4, 2}, {9, 3}, {10, 4},
	}
	for _, tt := range tests {
		if got := c.ShardSize(tt.segLen); got != tt.want {
			t.Errorf("ShardSize(%d) = %d, want %d", tt.segLen, got, tt.want)
		}
	}
}

func TestPaperParameters(t *testing.T) {
	// The paper's configuration: N=5 clouds, k=3, Kr=3, Ks=2 gives a
	// (10, 3) code: normal parity = ceil(k/Kr)*N = 5 blocks, max
	// blocks = (ceil(k/(Ks-1))-1)*N = 10.
	c := mustCoder(t, 3, 10)
	seg := make([]byte, 4<<20) // θ = 4 MB segment
	rand.New(rand.NewSource(1)).Read(seg)
	blocks := c.Encode(seg)
	// Block size should land in the paper's 1-2 MB sweet spot.
	if len(blocks[0]) < 1<<20 || len(blocks[0]) > 2<<20 {
		t.Fatalf("block size %d outside the paper's 1-2MB target", len(blocks[0]))
	}
}

func BenchmarkEncode4MBk3n10(b *testing.B) {
	c, err := NewCoder(3, 10)
	if err != nil {
		b.Fatal(err)
	}
	seg := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(seg)
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(seg)
	}
}

func BenchmarkDecode4MBk3n10(b *testing.B) {
	c, err := NewCoder(3, 10)
	if err != nil {
		b.Fatal(err)
	}
	seg := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(seg)
	blocks := c.Encode(seg)
	m := map[int][]byte{2: blocks[2], 5: blocks[5], 9: blocks[9]}
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(m, len(seg)); err != nil {
			b.Fatal(err)
		}
	}
}
