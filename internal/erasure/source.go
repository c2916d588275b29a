package erasure

import (
	"fmt"
	"sync"
)

// Source supplies one segment's coded blocks by ID, each encoded at
// most once. The segment is split into source shards on the first
// request. The first fused blocks — the normal placement an upload
// sends first (the paper generates them in advance) — are encoded
// together in one pass the first time any of them is asked for; every
// other block is encoded on its own and memoized, since a failed
// upload may ask for it again. Every buffer comes from the pool and
// goes back with Release, so a steady-state sync loop encodes without
// growing the heap. A Source is safe for concurrent use.
//
// Buffer ownership: a block stays valid until Release, and the caller
// keeps the segment bytes until then. cloud.Interface.Upload does not
// retain its data argument, so Release is safe once every upload
// reading a block has returned.
type Source struct {
	coder *Coder
	data  []byte
	fused int

	mu     sync.Mutex
	sh     *Shards
	blocks map[int][]byte
}

// NewSource returns the block source of segment data under coder,
// encoding blocks 0..fused-1 together.
func NewSource(coder *Coder, data []byte, fused int) *Source {
	return &Source{coder: coder, data: data, fused: min(fused, coder.n)}
}

// Block returns coded block id, encoding it on first request.
func (s *Source) Block(id int) ([]byte, error) {
	if id < 0 || id >= s.coder.n {
		return nil, fmt.Errorf("erasure: block %d outside code n=%d", id, s.coder.n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.blocks[id]; ok {
		return b, nil
	}
	if s.sh == nil {
		s.sh = s.coder.Split(s.data)
		s.blocks = make(map[int][]byte)
	}
	ids := []int{id}
	if id < s.fused {
		ids = allIndices(s.fused)
	}
	dst := make([][]byte, len(ids))
	for i, b := range ids {
		dst[i] = GetBuffer(s.sh.ShardSize())
		s.blocks[b] = dst[i]
	}
	s.coder.EncodeBlocksInto(s.sh, ids, dst)
	return s.blocks[id], nil
}

// Release returns the shards and every encoded block to the pool. The
// source must not serve blocks afterwards; a late Block call would
// re-split and re-encode into fresh buffers that then leak to the
// garbage collector (correct, just not pooled).
func (s *Source) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sh != nil {
		s.sh.Release()
		s.sh = nil
	}
	for _, b := range s.blocks {
		PutBuffer(b)
	}
	s.blocks = nil
}
