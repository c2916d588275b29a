package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"unidrive/internal/erasure"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/sched"
	"unidrive/internal/transfer"
)

// chunkFile cuts a file's content into segments, caches their bytes
// for upload, and returns the snapshot plus pool records for any
// segments that still need uploading (a segment already holding
// enough blocks in the committed pool deduplicates away).
func (c *Client) chunkFile(info localfs.FileInfo, data []byte) (*meta.Snapshot, []*meta.Segment) {
	segs := c.chnk.Split(data)
	snap := &meta.Snapshot{
		Path:    info.Path,
		Size:    int64(len(data)),
		ModTime: info.ModTime,
		Device:  c.cfg.Device,
	}
	var records []*meta.Segment
	known := c.lastImage()
	for _, s := range segs {
		id := s.ID()
		snap.SegmentIDs = append(snap.SegmentIDs, id)
		if existing, ok := known.Segment(id); ok && len(existing.Blocks) >= c.params.K {
			// Dedup: content already in the multi-cloud. Cache the
			// segment view without copying — it aliases the file
			// buffer, which every caller hands over as a fresh,
			// never-mutated read of the file, and it is only consulted
			// again if the dedup assumption later breaks.
			c.cacheSegment(id, s.Data)
			records = append(records, existing.Clone())
			continue
		}
		// Copy: the upload path keeps these bytes until the commit
		// lands, and a private buffer avoids pinning the whole file
		// buffer for one small segment.
		c.cacheSegment(id, append([]byte(nil), s.Data...))
		rec := &meta.Segment{
			ID:     id,
			Length: len(s.Data),
			K:      c.params.K,
			N:      c.params.CodeN(),
		}
		// Adopt blocks that crash recovery verified are already in the
		// clouds from an interrupted pass: the upload plan resumes from
		// them instead of re-uploading.
		for blockID, cloudName := range c.takeRecovered(id) {
			rec.AddBlock(blockID, cloudName)
		}
		records = append(records, rec)
	}
	return snap, records
}

// uploadOutcome summarizes one batch upload.
type uploadOutcome struct {
	// SegmentsUploaded counts segments that actually moved (dedup
	// hits do not).
	SegmentsUploaded int
	// BytesUploaded is pre-coding content bytes of uploaded segments.
	BytesUploaded int64
	// OverProvisioned counts extra parity blocks uploaded.
	OverProvisioned int
}

// uploadSession is one commit pass's upload: every new segment's plan
// in ONE continuous batch on its own goroutine, availability first and
// on to reliability (paper §6.2). The pass waits for the availability
// instant, commits, and joins the batch; whether the commit overlaps
// the batch's reliability tail is commitLocal's decision. Every path
// out of the pass ends in close.
type uploadSession struct {
	c       *Client
	plans   []sessionSegment
	outcome uploadOutcome
	// available is closed by the batch at the instant every segment has
	// K blocks in the multi-cloud, availAt; a batch that ends short of
	// that closes only done.
	available chan struct{}
	availAt   time.Time
	// done is closed when the batch has returned, nothing in flight; err,
	// crashed and endAt are the batch's to write until then.
	done    chan struct{}
	cancel  context.CancelFunc
	err     error
	crashed bool
	endAt   time.Time
}

type sessionSegment struct {
	seg  *meta.Segment
	plan *sched.UploadPlan
	src  *segmentSource
}

// startUpload plans every segment the changes add that is not in the
// multi-cloud yet and starts their batch: each changed file's segments
// go up in order, every cloud's idle connection taking the first block
// queued for it ("all networking resources are immediately assigned to
// the next file"), with over-provisioned extras until the batch is
// available and the queued fair shares alone after that.
func (c *Client) startUpload(ctx context.Context, changes []*meta.Change) (*uploadSession, error) {
	s := &uploadSession{c: c, available: make(chan struct{}), done: make(chan struct{}), cancel: func() {}}
	seen := make(map[string]bool)
	for _, ch := range changes {
		if ch.Type != meta.ChangeAdd && ch.Type != meta.ChangeEdit {
			continue
		}
		for _, seg := range ch.Segments {
			if len(seg.Blocks) >= c.params.K || seen[seg.ID] {
				continue // already available (dedup or earlier file)
			}
			src, err := c.blockSource(seg)
			if err != nil {
				s.release()
				return nil, err
			}
			plan, err := sched.NewUploadPlan(c.params, c.names)
			if err != nil {
				src.release()
				s.release()
				return nil, err
			}
			// Blocks surviving from a crashed pass (adopted by recovery
			// into the segment record) count as already uploaded.
			for _, b := range seg.Blocks {
				plan.SeedUploaded(b.BlockID, b.CloudID)
			}
			seen[seg.ID] = true
			s.plans = append(s.plans, sessionSegment{seg: seg, plan: plan, src: src})
			s.outcome.SegmentsUploaded++
			s.outcome.BytesUploaded += int64(seg.Length)
		}
	}
	if len(s.plans) == 0 {
		s.availAt = c.cfg.Clock.Now()
		close(s.available)
		close(s.done)
		return s, nil
	}
	bctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	crashAfter, crashArmed := c.crashThreshold(CrashMidUpload)
	// Availability is monotone (blocks only accumulate), so the check
	// resumes from the first plan not yet available instead of
	// rescanning all of them — the dispatcher asks per landed block, and
	// a rescan would cost O(blocks × segments) on a large commit.
	availCursor := 0
	available := func() bool {
		if crashArmed && s.uploadedTotal() >= crashAfter {
			// Die with blocks in the clouds that no metadata (and no
			// journaled placement) references — the worst orphan window.
			c.disarmCrash(CrashMidUpload)
			s.crashed = true
			cancel()
			return false
		}
		for availCursor < len(s.plans) && s.plans[availCursor].plan.Available() {
			availCursor++
		}
		if availCursor < len(s.plans) {
			return false
		}
		s.availAt = c.cfg.Clock.Now()
		close(s.available)
		return true
	}
	items := make([]transfer.UploadItem, len(s.plans))
	for i, p := range s.plans {
		items[i] = transfer.UploadItem{Plan: p.plan, SegID: p.seg.ID, Src: p.src.blocks}
	}
	engine := c.engine
	go func() {
		defer close(s.done)
		_, s.err = engine.UploadBatch(bctx, items, available)
		s.endAt = c.cfg.Clock.Now()
	}()
	return s, nil
}

func (s *uploadSession) uploadedTotal() int {
	total := 0
	for _, p := range s.plans {
		total += len(p.plan.UploadedBlocks())
	}
	return total
}

// awaitAvailable waits for the batch's availability instant. When the
// batch ended without one it says why: the injected crash, the
// cancelled pass, or the segment that could not get K blocks placed.
func (s *uploadSession) awaitAvailable() error {
	select {
	case <-s.available:
		return nil
	case <-s.done:
	}
	select {
	case <-s.available: // both were ready
		return nil
	default:
	}
	if s.crashed {
		return ErrCrashInjected
	}
	if s.err != nil {
		return s.err
	}
	for _, p := range s.plans {
		if p.plan.Available() {
			continue
		}
		if quotaConstrained(p.plan, s.c.names) {
			// The loud < K failure: not even availability fits in
			// the clouds' remaining quota. Distinct from generic
			// unavailability so the sync loop can back off to the
			// safety net instead of hot-looping failure backoff.
			return fmt.Errorf("core: segment %s: %w (%d/%d blocks)",
				p.seg.ID, ErrInsufficientCapacity, len(p.plan.UploadedBlocks()), s.c.params.K)
		}
		return fmt.Errorf("core: segment %s could not reach availability (%d/%d blocks)",
			p.seg.ID, len(p.plan.UploadedBlocks()), s.c.params.K)
	}
	return nil
}

// backlog reports whether any plan still has a fair-share block that
// no connection has taken: the batch's tail is then longer than what
// is in flight, and a commit made now overlaps real upload time.
func (s *uploadSession) backlog() bool {
	for _, p := range s.plans {
		if p.plan.Queued() > 0 {
			return true
		}
	}
	return false
}

// join waits for the batch to finish, every plan reliable or dry and
// nothing in flight. Its error is the cancelled pass's.
func (s *uploadSession) join() error {
	<-s.done
	return s.err
}

// close ends the session on every path out of the pass: whatever the
// batch still has in flight is cancelled and drained BEFORE the pooled
// coding buffers it reads from go back (transfer.BlockSource's
// ownership rule). After a join it only releases.
func (s *uploadSession) close() {
	s.cancel()
	<-s.done
	s.release()
}

func (s *uploadSession) release() {
	for _, p := range s.plans {
		p.src.release()
	}
}

// stamp writes the placements landed so far into every change record
// that references an uploaded segment, with each block's content
// checksum from the still-live coding buffers — the cheapest possible
// moment: the encoded bytes are already in memory. Only landed blocks
// are named (plan.Placement), never blocks in flight, so a commit of
// these records keeps blocks-before-metadata while the batch runs on.
// It returns the placements by segment for the journal.
func (s *uploadSession) stamp(changes []*meta.Change) map[string]map[int]string {
	placements := make(map[string]map[int]string, len(s.plans))
	sources := make(map[string]*segmentSource, len(s.plans))
	for _, p := range s.plans {
		placements[p.seg.ID] = p.plan.Placement()
		sources[p.seg.ID] = p.src
	}
	for _, ch := range changes {
		for _, seg := range ch.Segments {
			pl, ok := placements[seg.ID]
			if !ok {
				continue
			}
			src := sources[seg.ID]
			seg.Blocks = seg.Blocks[:0]
			for blockID, cloudName := range pl {
				seg.AddBlockSum(blockID, cloudName, src.sum(blockID))
			}
			// A placement below the fair-share target is committed thin:
			// a crash before the final placement is recorded leaves a
			// record the scrubber knows to re-expand.
			seg.Thin = len(pl) < s.c.normalTarget(seg)
		}
	}
	return placements
}

// settle compares the joined batch's final placements with what stamp
// recorded and returns relocate changes for the segments that moved on
// — the paper's callback-updated Cloud-ID fields — plus the number of
// over-provisioned blocks uploaded. Nothing when the commit already
// named the full placement.
func (s *uploadSession) settle() (relocates []*meta.Change, overProvisioned int) {
	for _, p := range s.plans {
		overProvisioned += p.plan.OverProvisioned()
		placement := p.plan.Placement()
		thin := len(placement) < s.c.normalTarget(p.seg)
		if thin {
			// The batch could not reach fair share — quota pressure left
			// the segment under-replicated. It stays committed thin;
			// scrub/rebalance re-expand it when space returns.
			s.c.cfg.Obs.Counter("core.commit.thin_segments").Inc()
		}
		if len(placement) == len(p.seg.Blocks) && thin == p.seg.Thin {
			continue // nothing new to record
		}
		updated := p.seg.Clone()
		updated.Blocks = nil
		updated.Thin = thin
		for blockID, cloudName := range placement {
			updated.AddBlockSum(blockID, cloudName, p.src.sum(blockID))
		}
		relocates = append(relocates, &meta.Change{
			Type: meta.ChangeRelocate, Path: updated.ID,
			Segments: []*meta.Segment{updated},
		})
	}
	return relocates, overProvisioned
}

// ErrInsufficientCapacity reports that the clouds' remaining quota
// cannot host even the K blocks a segment needs for availability —
// capacity exhaustion severe enough that the pass must fail loudly
// (a thin commit requires at least K blocks placed).
var ErrInsufficientCapacity = errors.New("core: insufficient cloud capacity for segment availability")

// quotaConstrained reports whether the plan wrote any cloud off for
// quota exhaustion — the signal that a shortfall is a capacity
// problem, not a connectivity one.
func quotaConstrained(plan *sched.UploadPlan, names []string) bool {
	for _, n := range names {
		if plan.IsFull(n) {
			return true
		}
	}
	return false
}

// normalTarget is the full placement a segment should reach: the
// placement parameters' normal-block count, capped by the segment's
// code width.
func (c *Client) normalTarget(seg *meta.Segment) int {
	n := c.params.NormalBlocks()
	if n > seg.N {
		n = seg.N
	}
	return n
}

// segmentSource supplies a segment's coded blocks to the transfer
// engine. The segment is split into source shards once, lazily; the
// normal blocks are encoded in one fused pass on first request (the
// paper generates them in advance); over-provisioned parity blocks are
// generated on demand and memoized, since a failed extra may be
// re-requested. All coding buffers come from the erasure package's
// pool and go back with release(), so a steady-state sync loop encodes
// without growing the heap.
//
// Buffer ownership: blocks() lends a buffer to the engine for the
// duration of the upload; cloud.Interface.Upload must not retain its
// data argument, and UploadBatch drains in-flight transfers before
// returning, so release() is safe once the session's batch has been
// joined (uploadSession.close).
type segmentSource struct {
	coder       *erasure.Coder
	data        []byte
	n           int
	normalCount int

	mu      sync.Mutex
	sh      *erasure.Shards
	normals [][]byte
	extras  map[int][]byte
}

// blockSource builds the block supplier for a segment from the cached
// content.
func (c *Client) blockSource(seg *meta.Segment) (*segmentSource, error) {
	data, ok := c.cachedSegment(seg.ID)
	if !ok {
		return nil, fmt.Errorf("core: no cached content for segment %s", seg.ID)
	}
	coder, err := erasure.CoderFor(seg.K, seg.N)
	if err != nil {
		return nil, err
	}
	return &segmentSource{
		coder:       coder,
		data:        data,
		n:           seg.N,
		normalCount: c.normalTarget(seg),
	}, nil
}

// blocks is the transfer.BlockSource for this segment.
func (s *segmentSource) blocks(blockID int) ([]byte, error) {
	if blockID < 0 || blockID >= s.n {
		return nil, fmt.Errorf("core: block %d outside code n=%d", blockID, s.n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sh == nil {
		s.sh = s.coder.Split(s.data)
	}
	if blockID < s.normalCount {
		if s.normals == nil {
			ids := make([]int, s.normalCount)
			s.normals = make([][]byte, s.normalCount)
			for i := range ids {
				ids[i] = i
				s.normals[i] = erasure.GetBuffer(s.sh.ShardSize())
			}
			s.coder.EncodeBlocksInto(s.sh, ids, s.normals)
		}
		return s.normals[blockID], nil
	}
	if b, ok := s.extras[blockID]; ok {
		return b, nil
	}
	b := erasure.GetBuffer(s.sh.ShardSize())
	s.coder.EncodeBlocksInto(s.sh, []int{blockID}, [][]byte{b})
	if s.extras == nil {
		s.extras = make(map[int][]byte)
	}
	s.extras[blockID] = b
	return b, nil
}

// sum returns the content checksum of one coded block, encoding the
// block on demand through blocks(). Zero (the "unknown" sentinel)
// only for an out-of-range ID, which upstream scheduling never
// produces.
func (s *segmentSource) sum(blockID int) uint32 {
	b, err := s.blocks(blockID)
	if err != nil {
		return 0
	}
	return meta.BlockSum(b)
}

// release returns the source's shard arena and block buffers to the
// pool. The source must not serve blocks afterwards; a late blocks()
// call would re-split and re-encode, handing out fresh buffers that
// then leak to the garbage collector (correct, just not pooled).
func (s *segmentSource) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sh != nil {
		s.sh.Release()
		s.sh = nil
	}
	for _, b := range s.normals {
		erasure.PutBuffer(b)
	}
	s.normals = nil
	for _, b := range s.extras {
		erasure.PutBuffer(b)
	}
	s.extras = nil
}
