package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncodeBlocksIntoMatchesEncode checks the pooled fast path against
// the allocating API across segment sizes straddling tile and stride
// boundaries.
func TestEncodeBlocksIntoMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := mustCoder(t, 4, 8)
	for _, segLen := range []int{0, 1, 5, 1024, colTile*4 - 3, colTile*4 + 9, 1 << 20} {
		seg := make([]byte, segLen)
		rng.Read(seg)
		want := c.Encode(seg)

		sh := c.Split(seg)
		indices := allIndices(c.n)
		got := make([][]byte, len(indices))
		for i := range got {
			got[i] = GetBuffer(sh.ShardSize()) // deliberately dirty
		}
		c.EncodeBlocksInto(sh, indices, got)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("segLen=%d: block %d differs between EncodeBlocksInto and Encode", segLen, i)
			}
		}
		for i := range got {
			PutBuffer(got[i])
		}
		sh.Release()
	}
}

// TestSplitReusesDirtyPoolBuffers makes sure Split zeroes the padding
// tail even when its pooled buffer carries garbage from a previous use.
func TestSplitReusesDirtyPoolBuffers(t *testing.T) {
	c := mustCoder(t, 3, 6)
	dirty := GetBuffer(3 * c.ShardSize(100))
	for i := range dirty {
		dirty[i] = 0xff
	}
	PutBuffer(dirty)

	seg := bytes.Repeat([]byte{7}, 100) // needs padding to 3*34
	sh := c.Split(seg)
	defer sh.Release()
	joined := bytes.Join(sh.Rows(), nil)
	if !bytes.Equal(joined[:100], seg) {
		t.Fatal("split lost segment bytes")
	}
	for i, b := range joined[100:] {
		if b != 0 {
			t.Fatalf("padding byte %d is %#x, want 0 (dirty pool buffer leaked)", i, b)
		}
	}
}

// TestDecodeIntoMatchesDecode checks the in-place decode against the
// allocating one, including reuse of an oversized dirty destination.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := mustCoder(t, 4, 9)
	seg := make([]byte, 64<<10+13)
	rng.Read(seg)
	blocks := c.Encode(seg)
	got := map[int][]byte{0: blocks[0], 2: blocks[2], 5: blocks[5], 8: blocks[8]}

	want, err := c.Decode(got, len(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, seg) {
		t.Fatal("Decode did not reconstruct the segment")
	}

	dst := GetBuffer(c.k * c.ShardSize(len(seg)))
	for i := range dst {
		dst[i] = 0xaa
	}
	out, err := c.DecodeInto(dst, got, len(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, seg) {
		t.Fatal("DecodeInto did not reconstruct the segment")
	}
	if &out[0] != &dst[0] {
		t.Fatal("DecodeInto ignored a sufficient destination buffer")
	}
	PutBuffer(dst)

	// Undersized destination: must fall back to allocation.
	small := make([]byte, 10)
	out, err = c.DecodeInto(small, got, len(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, seg) {
		t.Fatal("DecodeInto with undersized dst did not reconstruct the segment")
	}
}

// TestDecodeMatrixCache proves the cache keeps one inverse per index
// set and evicts the least recently used.
func TestDecodeMatrixCache(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := mustCoder(t, 2, 130) // enough distinct index pairs to overflow the cache
	seg := make([]byte, 512)
	rng.Read(seg)
	blocks := c.Encode(seg)

	decodeWith := func(i, j int) {
		t.Helper()
		out, err := c.Decode(map[int][]byte{i: blocks[i], j: blocks[j]}, len(seg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, seg) {
			t.Fatalf("decode with blocks (%d,%d) failed", i, j)
		}
	}

	cached := func(i, j int) bool {
		key, _ := makeDecodeKey([]int{i, j})
		c.dec.mu.Lock()
		defer c.dec.mu.Unlock()
		_, ok := c.dec.entries[key]
		return ok
	}

	// First use of an index set caches its inverse; repeats add none.
	decodeWith(0, 1)
	for r := 0; r < 5; r++ {
		decodeWith(0, 1)
	}
	if !cached(0, 1) || c.dec.lru.Len() != 1 {
		t.Fatalf("after repeats: %d entries, (0,1) cached %v; want 1, true", c.dec.lru.Len(), cached(0, 1))
	}

	// Fill the cache with decodeCacheCap-1 distinct further index
	// sets, then use (0,1) again: the hit makes it the most recently
	// used, so the next new set evicts the oldest fill entry instead.
	for s := 0; s < decodeCacheCap-1; s++ {
		decodeWith(2+s, 3+s)
	}
	decodeWith(0, 1)
	decodeWith(100, 101)
	if n := c.dec.lru.Len(); n != decodeCacheCap {
		t.Fatalf("cache has %d entries, want the capacity %d", n, decodeCacheCap)
	}
	if !cached(0, 1) || cached(2, 3) {
		t.Fatalf("LRU evicted the wrong entry: (0,1) cached %v, (2,3) cached %v", cached(0, 1), cached(2, 3))
	}
	if !cached(2+decodeCacheCap-2, 3+decodeCacheCap-2) {
		t.Fatal("the most recently filled set was evicted")
	}
}

// TestDecodeCacheKeyDistinguishesSets guards against key collisions
// between different index tuples of the same coder.
func TestDecodeCacheKeyDistinguishesSets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := mustCoder(t, 3, 10)
	seg := make([]byte, 1000)
	rng.Read(seg)
	blocks := c.Encode(seg)
	sets := [][]int{{0, 1, 2}, {0, 1, 3}, {7, 8, 9}, {0, 5, 9}}
	for round := 0; round < 3; round++ {
		for _, set := range sets {
			m := map[int][]byte{}
			for _, i := range set {
				m[i] = blocks[i]
			}
			out, err := c.Decode(m, len(seg))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, seg) {
				t.Fatalf("round %d: decode with %v failed", round, set)
			}
		}
	}
}

// TestPoolRoundTrip checks the buffer pool's size-class contract.
func TestPoolRoundTrip(t *testing.T) {
	if got := GetBuffer(0); got != nil {
		t.Fatal("GetBuffer(0) must return nil")
	}
	PutBuffer(nil) // must not panic
	for _, n := range []int{1, 511, 512, 513, 4096, 1<<20 + 1} {
		b := GetBuffer(n)
		if len(b) != n {
			t.Fatalf("GetBuffer(%d) returned len %d", n, len(b))
		}
		PutBuffer(b)
		b2 := GetBuffer(n)
		if len(b2) != n {
			t.Fatalf("recycled GetBuffer(%d) returned len %d", n, len(b2))
		}
		PutBuffer(b2)
	}
}

// TestConcurrentCoderUse hammers one coder from several goroutines so
// `go test -race` exercises the worker fan-out, the shared decode
// cache, and the pool together.
func TestConcurrentCoderUse(t *testing.T) {
	c := mustCoder(t, 4, 8)
	seg := make([]byte, 256<<10) // large enough for multiple tiles
	rand.New(rand.NewSource(5)).Read(seg)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for it := 0; it < 5; it++ {
				blocks := c.Encode(seg)
				m := map[int][]byte{}
				for i := (g + it) % 4; len(m) < c.k; i++ {
					m[i%c.n] = blocks[i%c.n]
				}
				out, err := c.Decode(m, len(seg))
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(out, seg) {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errString("concurrent decode mismatch")

type errString string

func (e errString) Error() string { return string(e) }
