// Package chunker implements UniDrive's content-based file
// segmentation (paper §6.1, following LBFS).
//
// Files are divided into segments at boundaries determined by the
// file's own content: a rolling hash over a sliding window declares a
// boundary wherever its low bits hit a fixed pattern. Because the
// boundaries depend only on nearby bytes, an insertion or edit shifts
// the data but re-aligns within a segment or two — so only the edited
// segments change identity, and everything else deduplicates. Segment
// identity is the hash of the content ("segments with same content,
// even from different files, will have the same file name"). The paper
// names segments by SHA-1; this implementation uses SHA-256, because a
// SHA-1 collision would merge two different segments into one (see
// DESIGN.md §1).
//
// Segment sizes are constrained to (0.5·θ, 1.5·θ) for a tunable target
// θ — small boundaries are skipped (merging small neighbours) and a
// boundary is forced at 1.5·θ (splitting large segments) — because the
// measurement study showed transfer efficiency peaks for block sizes
// in a bounded range (paper §3.2, §7.1). Only a file's final segment
// may be smaller than 0.5·θ.
//
// SegmentID is the one place a segment is named, and every content
// check (chunking, the decode check, the scrubber, the on-disk
// comparison of a plan) goes through it. IDs names many segments at
// once on every core.
package chunker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Segment is one content-defined piece of a file.
type Segment struct {
	// Offset is the segment's byte offset within the file.
	Offset int64
	// Data is the segment content. It aliases the input buffer passed
	// to Split; callers that mutate the file data must copy first.
	Data []byte
}

// SegmentID returns the hex SHA-256 of data — the segment's name in
// the multi-cloud (paper: "indexed by the SHA-1 hash of all their
// content", with SHA-256 in SHA-1's place).
func SegmentID(data []byte) string {
	d := sha256.Sum256(data)
	return hex.EncodeToString(d[:])
}

// IDs returns SegmentID of every segment, in order. It hashes on up to
// GOMAXPROCS goroutines, each taking the next unhashed segment, so one
// large segment does not hold the small ones behind it; a lone segment
// is hashed inline.
func IDs(segs []Segment) []string {
	ids := make([]string, len(segs))
	workers := min(runtime.GOMAXPROCS(0), len(segs))
	if workers <= 1 {
		for i, s := range segs {
			ids[i] = SegmentID(s.Data)
		}
		return ids
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(segs); i = int(next.Add(1)) - 1 {
				ids[i] = SegmentID(segs[i].Data)
			}
		}()
	}
	wg.Wait()
	return ids
}

// gearTable is a fixed pseudo-random substitution table for the gear
// rolling hash. It must be identical across devices and versions —
// chunk boundaries are part of the on-cloud data format — so it is
// generated once from a fixed linear congruential sequence rather
// than at runtime.
var gearTable = buildGearTable()

func buildGearTable() [256]uint64 {
	var t [256]uint64
	// splitmix64 with a fixed seed: stable, well-mixed constants.
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}

// Chunker splits byte streams into content-defined segments with a
// target size of θ. A Chunker is immutable and safe for concurrent
// use.
type Chunker struct {
	theta   int
	minSize int
	maxSize int
	mask    uint64
}

// MinTheta is the smallest permitted target segment size. Below this
// the rolling hash has too little content to establish boundaries.
const MinTheta = 256

// New returns a Chunker with target segment size theta (the paper
// uses θ = 4 MB). Segments are constrained to (theta/2, theta*3/2).
func New(theta int) (*Chunker, error) {
	if theta < MinTheta {
		return nil, fmt.Errorf("chunker: theta %d below minimum %d", theta, MinTheta)
	}
	minSize := theta / 2
	maxSize := theta + theta/2
	// After minSize bytes, boundaries arrive geometrically with mean
	// 2^maskBits; choose maskBits so mean segment ≈ minSize + 2^b ≈ θ.
	maskBits := bits.Len64(uint64(theta-minSize)) - 1
	if maskBits < 1 {
		maskBits = 1
	}
	return &Chunker{
		theta:   theta,
		minSize: minSize,
		maxSize: maxSize,
		mask:    (1 << maskBits) - 1,
	}, nil
}

// Split divides data into content-defined segments. The segments
// tile the input exactly: concatenating Data in order reproduces the
// input. Splitting an empty input produces a single empty segment so
// that empty files still have a segment identity.
func (c *Chunker) Split(data []byte) []Segment {
	if len(data) == 0 {
		return []Segment{{Offset: 0, Data: data}}
	}
	var segs []Segment
	start := 0
	for start < len(data) {
		end := c.nextBoundary(data[start:])
		segs = append(segs, Segment{Offset: int64(start), Data: data[start : start+end]})
		start += end
	}
	return segs
}

// nextBoundary returns the length of the next segment starting at
// rest[0].
func (c *Chunker) nextBoundary(rest []byte) int {
	if len(rest) <= c.minSize {
		return len(rest)
	}
	limit := len(rest)
	if limit > c.maxSize {
		limit = c.maxSize
	}
	var h uint64
	// The gear hash's window is implicit (~64 bytes of influence via
	// the shift); warm it up inside the skipped min-size prefix so
	// boundary decisions right after minSize are content-driven.
	warm := c.minSize - 64
	if warm < 0 {
		warm = 0
	}
	for i := warm; i < limit; i++ {
		h = (h << 1) + gearTable[rest[i]]
		if i < c.minSize {
			continue
		}
		if h&c.mask == 0 {
			return i + 1
		}
	}
	return limit
}
