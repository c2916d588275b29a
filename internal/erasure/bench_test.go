package erasure

import (
	"fmt"
	"math/rand"
	"testing"

	"unidrive/internal/gf256"
)

// benchSegment is the paper's working point: θ = 4 MiB segments.
const benchSegment = 4 << 20

func benchCoder(b *testing.B, k, n int) *Coder {
	b.Helper()
	c, err := NewCoder(k, n)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkErasureThroughput is the headline data-plane number: coded
// MB/s at (k=4, n=8, 4 MiB segments) for the pooled steady-state
// encode and decode paths, plus the legacy allocating paths for
// comparison. The MB/s metric is segment bytes (pre-coding content)
// per wall second.
func BenchmarkErasureThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seg := make([]byte, benchSegment)
	rng.Read(seg)

	b.Run("encode/pooled", func(b *testing.B) {
		c := benchCoder(b, 4, 8)
		indices := allIndices(c.n)
		shardSize := c.ShardSize(len(seg))
		dst := make([][]byte, len(indices))
		for i := range dst {
			dst[i] = make([]byte, shardSize)
		}
		b.SetBytes(benchSegment)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sh := c.Split(seg)
			c.EncodeBlocksInto(sh, indices, dst)
			sh.Release()
		}
	})

	b.Run("encode/alloc", func(b *testing.B) {
		c := benchCoder(b, 4, 8)
		b.SetBytes(benchSegment)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Encode(seg)
		}
	})

	b.Run("decode/pooled", func(b *testing.B) {
		c := benchCoder(b, 4, 8)
		blocks := c.Encode(seg)
		m := map[int][]byte{1: blocks[1], 3: blocks[3], 5: blocks[5], 7: blocks[7]}
		dst := make([]byte, c.k*c.ShardSize(len(seg)))
		b.SetBytes(benchSegment)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.DecodeInto(dst, m, len(seg)); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("decode/alloc", func(b *testing.B) {
		c := benchCoder(b, 4, 8)
		blocks := c.Encode(seg)
		m := map[int][]byte{1: blocks[1], 3: blocks[3], 5: blocks[5], 7: blocks[7]}
		b.SetBytes(benchSegment)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Decode(m, len(seg)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkErasureScalarBaseline reproduces the pre-optimization code
// path — per-call split into fresh buffers, per-block allocation, one
// scalar MulAddSlice per matrix cell, per-call matrix inversion — so
// the speedup of the current implementation stays measurable after the
// old code is gone.
func BenchmarkErasureScalarBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seg := make([]byte, benchSegment)
	rng.Read(seg)
	c := benchCoder(b, 4, 8)

	oldSplit := func(segment []byte) [][]byte {
		shard := c.ShardSize(len(segment))
		buf := make([]byte, c.k*shard)
		copy(buf, segment)
		shards := make([][]byte, c.k)
		for i := range shards {
			shards[i] = buf[i*shard : (i+1)*shard]
		}
		return shards
	}
	oldEncode := func(segment []byte) [][]byte {
		shards := oldSplit(segment)
		out := make([][]byte, c.n)
		for idx := 0; idx < c.n; idx++ {
			block := make([]byte, len(shards[0]))
			for j, coef := range c.enc.Row(idx) {
				gf256.MulAddSliceScalar(coef, shards[j], block)
			}
			out[idx] = block
		}
		return out
	}

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(benchSegment)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oldEncode(seg)
		}
	})

	b.Run("decode", func(b *testing.B) {
		blocks := oldEncode(seg)
		idxs := []int{1, 3, 5, 7}
		m := map[int][]byte{}
		for _, i := range idxs {
			m[i] = blocks[i]
		}
		shardSize := c.ShardSize(len(seg))
		b.SetBytes(benchSegment)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inv, err := c.enc.SubMatrix(idxs).Invert()
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, c.k*shardSize)
			for row := 0; row < c.k; row++ {
				dst := buf[row*shardSize : (row+1)*shardSize]
				for col, coef := range inv.Row(row) {
					gf256.MulAddSliceScalar(coef, m[idxs[col]], dst)
				}
			}
		}
	})
}

// BenchmarkErasureQuickSizes tracks the trajectory snapshot sizes
// recorded in BENCH_erasure.json.
func BenchmarkErasureQuickSizes(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, 4 << 20} {
		rng := rand.New(rand.NewSource(2))
		seg := make([]byte, size)
		rng.Read(seg)
		b.Run(fmt.Sprintf("encode/%dKiB", size>>10), func(b *testing.B) {
			c := benchCoder(b, 4, 8)
			indices := allIndices(c.n)
			dst := make([][]byte, len(indices))
			for i := range dst {
				dst[i] = make([]byte, c.ShardSize(size))
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh := c.Split(seg)
				c.EncodeBlocksInto(sh, indices, dst)
				sh.Release()
			}
		})
	}
}
