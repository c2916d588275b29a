// LRU cache of inverted decode matrices.
//
// A sync session decodes hundreds of segments with the identical set
// of surviving block indices (the same clouds answered for each), so
// the k×k Gaussian elimination that Decode performs is the same
// inversion over and over. Each Coder memoizes the inverses keyed by
// the sorted block-index tuple; a steady-state download hits the cache
// and skips elimination entirely.

package erasure

import (
	"container/list"
	"sync"

	"unidrive/internal/gf256"
)

// decodeCacheCap bounds the number of cached inverses per coder. With
// n <= 20 clouds in practice the distinct index sets seen in one run
// are few; 64 covers every k-subset a flapping cloud can produce
// without letting a pathological caller grow the cache unboundedly.
const decodeCacheCap = 64

// maxCacheK bounds the key size; decode sets with more than maxCacheK
// indices skip the cache (k that large is outside UniDrive's regime
// and the inversion is no longer the dominant cost there).
const maxCacheK = 32

// decodeKey is the sorted block-index tuple, inlined into an array so
// map lookups allocate nothing.
type decodeKey struct {
	k   int
	idx [maxCacheK]byte
}

func makeDecodeKey(idxs []int) (decodeKey, bool) {
	var key decodeKey
	if len(idxs) > maxCacheK {
		return key, false
	}
	key.k = len(idxs)
	for i, v := range idxs {
		key.idx[i] = byte(v)
	}
	return key, true
}

type decodeCacheEntry struct {
	key decodeKey
	inv *gf256.Matrix // read-only once cached; shared across goroutines
}

// decodeCache is a small concurrency-safe LRU.
type decodeCache struct {
	mu      sync.Mutex
	entries map[decodeKey]*list.Element
	lru     *list.List // front = most recently used
}

func newDecodeCache() *decodeCache {
	return &decodeCache{
		entries: make(map[decodeKey]*list.Element, decodeCacheCap),
		lru:     list.New(),
	}
}

func (c *decodeCache) get(key decodeKey) *gf256.Matrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*decodeCacheEntry).inv
}

func (c *decodeCache) put(key decodeKey, inv *gf256.Matrix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Raced with another decoder of the same index set; keep the
		// incumbent (both inverses are identical).
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&decodeCacheEntry{key: key, inv: inv})
	c.entries[key] = el
	if c.lru.Len() > decodeCacheCap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*decodeCacheEntry).key)
	}
}

// decodeMatrix returns the inverse of the encode submatrix for the
// sorted index set idxs, consulting the cache first.
func (c *Coder) decodeMatrix(idxs []int) (*gf256.Matrix, error) {
	key, cacheable := makeDecodeKey(idxs)
	if cacheable {
		if inv := c.dec.get(key); inv != nil {
			return inv, nil
		}
	}
	inv, err := c.enc.SubMatrix(idxs).Invert()
	if err != nil {
		return nil, err
	}
	if cacheable {
		c.dec.put(key, inv)
	}
	return inv, nil
}
