// Package erasure implements the Reed–Solomon coding used by
// UniDrive's data plane (paper §6.1).
//
// Each file segment is split into k equally sized source shards and
// encoded into n >= k coded data blocks such that any k blocks
// reconstruct the segment (an MDS code). UniDrive deliberately uses a
// NON-SYSTEMATIC code: no coded block is a verbatim copy of source
// data, so a provider holding fewer than k blocks of a segment learns
// nothing of the plaintext layout ("removes their semantics and thus
// prevents the providers from inferring the original contents").
//
// The encode matrix is a Cauchy matrix, every square submatrix of
// which is invertible — exactly the property needed for any-k-of-n
// decoding.
package erasure

import (
	"errors"
	"fmt"
	"sync"

	"unidrive/internal/gf256"
)

// Coder encodes segments into n coded blocks of which any k recover
// the original. The encode matrix is immutable; the only mutable state
// is the internal decode-matrix cache, which is concurrency-safe, so a
// Coder is safe for concurrent use.
type Coder struct {
	k, n int
	enc  *gf256.Matrix
	dec  *decodeCache
}

// ErrInsufficientBlocks is returned by Decode when fewer than k
// distinct blocks are supplied.
var ErrInsufficientBlocks = errors.New("erasure: insufficient blocks to decode")

// NewCoder returns a non-systematic (k, n) coder. It returns an error
// unless 0 < k <= n and n+k <= 256.
func NewCoder(k, n int) (*Coder, error) {
	if k <= 0 || n < k || n+k > 256 {
		return nil, fmt.Errorf("erasure: invalid parameters k=%d n=%d", k, n)
	}
	return &Coder{k: k, n: n, enc: gf256.Cauchy(n, k), dec: newDecodeCache()}, nil
}

// coders holds CoderFor's coders, [2]int{k, n} -> *Coder.
var coders sync.Map

// CoderFor returns the process-wide (k, n) coder of the on-cloud block
// format, building it on first use; every component that encodes or
// decodes stored blocks (upload, download, rebalance, scrub repair)
// shares it and its decode-matrix cache. The format never stores a
// plaintext shard, and a reader or repairer speaking any other code
// could neither reconstruct a segment nor re-encode a block the
// uploader's metadata describes.
func CoderFor(k, n int) (*Coder, error) {
	key := [2]int{k, n}
	if c, ok := coders.Load(key); ok {
		return c.(*Coder), nil
	}
	c, err := NewCoder(k, n)
	if err != nil {
		return nil, err
	}
	shared, _ := coders.LoadOrStore(key, c)
	return shared.(*Coder), nil
}

// ShardSize returns the per-block size for a segment of segLen bytes:
// ceil(segLen / k), with a minimum of 1 so zero-length segments still
// produce well-formed blocks.
func (c *Coder) ShardSize(segLen int) int {
	if segLen <= 0 {
		return 1
	}
	return (segLen + c.k - 1) / c.k
}

// Encode produces all n coded blocks for the segment. Block i is the
// i-th row of the encode matrix applied to the source shards. The
// original segment length must be remembered by the caller (UniDrive
// stores it in the segment metadata) to strip padding on decode.
func (c *Coder) Encode(segment []byte) [][]byte {
	return c.EncodeBlocks(segment, allIndices(c.n))
}

// EncodeBlocks produces only the blocks with the given indices, in
// the given order. UniDrive uses this to generate over-provisioned
// parity blocks on demand (paper §6.1: they "can be generated either
// in advance ... or on demand") without paying for the full n. It
// panics if an index is out of [0, n).
//
// The returned blocks are ordinary garbage-collected buffers owned by
// the caller. Hot paths that encode the same segment repeatedly or
// recycle block buffers use Split + EncodeBlocksInto instead.
func (c *Coder) EncodeBlocks(segment []byte, indices []int) [][]byte {
	sh := c.Split(segment)
	defer sh.Release()
	out := make([][]byte, len(indices))
	for i := range out {
		out[i] = make([]byte, sh.ShardSize())
	}
	c.EncodeBlocksInto(sh, indices, out)
	return out
}

// EncodeBlocksInto writes the coded blocks with the given indices over
// the pre-split shards into dst: dst[i] receives block indices[i] and
// must be exactly ShardSize bytes long (its prior contents are
// ignored, so pooled buffers need no zeroing). It panics if an index
// is out of [0, n), if len(dst) != len(indices), or if a destination
// has the wrong size. Encoding is column-tiled and fans out across
// GOMAXPROCS workers for large shards.
func (c *Coder) EncodeBlocksInto(sh *Shards, indices []int, dst [][]byte) {
	if len(dst) != len(indices) {
		panic(fmt.Sprintf("erasure: %d destinations for %d block indices", len(dst), len(indices)))
	}
	for oi, idx := range indices {
		if idx < 0 || idx >= c.n {
			panic(fmt.Sprintf("erasure: block index %d out of range [0,%d)", idx, c.n))
		}
		if len(dst[oi]) != sh.ShardSize() {
			panic(fmt.Sprintf("erasure: destination %d has size %d, want %d", oi, len(dst[oi]), sh.ShardSize()))
		}
	}
	codeStripes(c.enc, indices, sh.Rows(), dst, sh.ShardSize())
}

// Decode reconstructs a segment of origLen bytes from any k coded
// blocks. blocks maps block index -> block content; all blocks must
// have equal length ShardSize(origLen). Extra blocks beyond k are
// ignored (the k smallest indices are used, which keeps decoding
// deterministic).
//
// The returned buffer is freshly allocated and owned by the caller;
// DecodeInto is the allocation-free variant.
func (c *Coder) Decode(blocks map[int][]byte, origLen int) ([]byte, error) {
	return c.DecodeInto(nil, blocks, origLen)
}

// DecodeInto is Decode writing into caller-provided memory: when
// cap(dst) >= k*ShardSize(origLen) the reconstruction happens in dst
// and the result (length origLen) aliases it; otherwise a new buffer
// is allocated as in Decode. dst's prior contents are ignored, so a
// dirty pooled buffer is fine.
//
// The decode matrix is served from a per-coder LRU cache keyed by the
// sorted block-index set, so steady-state downloads (the same clouds
// answering segment after segment) skip Gaussian elimination; rows are
// reconstructed with the fused column-tiled kernels, in parallel for
// large shards.
func (c *Coder) DecodeInto(dst []byte, blocks map[int][]byte, origLen int) ([]byte, error) {
	if len(blocks) < c.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrInsufficientBlocks, len(blocks), c.k)
	}
	// Collect the k smallest block indices without heap traffic.
	var idxStack [maxStackShards]int
	idxs := idxStack[:0]
	if len(blocks) > maxStackShards {
		idxs = make([]int, 0, len(blocks))
	}
	for i := range blocks {
		if i < 0 || i >= c.n {
			return nil, fmt.Errorf("erasure: block index %d out of range [0,%d)", i, c.n)
		}
		idxs = append(idxs, i)
	}
	insertionSort(idxs)
	idxs = idxs[:c.k]

	shardSize := c.ShardSize(origLen)
	for _, i := range idxs {
		if len(blocks[i]) != shardSize {
			return nil, fmt.Errorf("erasure: block %d has size %d, want %d", i, len(blocks[i]), shardSize)
		}
	}

	inv, err := c.decodeMatrix(idxs)
	if err != nil {
		return nil, fmt.Errorf("erasure: decode matrix inversion: %w", err)
	}

	need := c.k * shardSize
	if origLen < 0 || origLen > need {
		return nil, fmt.Errorf("erasure: original length %d outside [0,%d]", origLen, need)
	}
	buf := dst
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]

	// Reconstruct the k source shards: src = inv × received.
	var srcStack, rowStack [maxStackShards][]byte
	srcs, rows := srcStack[:0], rowStack[:0]
	if c.k > maxStackShards {
		srcs = make([][]byte, 0, c.k)
		rows = make([][]byte, 0, c.k)
	}
	var rowIdxStack [maxStackShards]int
	rowIdx := rowIdxStack[:0]
	if c.k > maxStackShards {
		rowIdx = make([]int, 0, c.k)
	}
	for r := 0; r < c.k; r++ {
		srcs = append(srcs, blocks[idxs[r]])
		rows = append(rows, buf[r*shardSize:(r+1)*shardSize])
		rowIdx = append(rowIdx, r)
	}
	codeStripes(inv, rowIdx, srcs, rows, shardSize)
	return buf[:origLen], nil
}

// insertionSort sorts small int slices in place without the interface
// or escape costs of the sort package; decode index sets have at most
// n <= 256 elements and typically fewer than ten.
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
