package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unidrive/internal/chunker"
	"unidrive/internal/erasure"
	"unidrive/internal/meta"
	"unidrive/internal/sched"
	"unidrive/internal/transfer"
)

// stageSegments caches a recorded file's segment bytes for upload and
// returns their pool records: a segment already holding enough blocks
// in the committed pool deduplicates away to its committed record, and
// a new segment's record names no blocks — it names only what
// startUpload lands or adopts, each with its checksum.
//
// The cache aliases the file buffer without copying: every caller
// hands over a fresh, never-mutated read of the file, and advance drops
// a path's segments together, so a private copy of one segment would
// free nothing sooner.
func (c *Client) stageSegments(segs []chunker.Segment, ids []string) []*meta.Segment {
	records := make([]*meta.Segment, len(segs))
	known := c.lastImage()
	for i, s := range segs {
		c.cacheSegment(ids[i], s.Data)
		if existing, ok := known.Segment(ids[i]); ok && len(existing.Blocks) >= c.params.K {
			records[i] = existing.Clone()
			continue
		}
		records[i] = &meta.Segment{
			ID:     ids[i],
			Length: len(s.Data),
			K:      c.params.K,
			N:      c.params.CodeN(),
		}
	}
	return records
}

// uploadOutcome summarizes one batch upload.
type uploadOutcome struct {
	// SegmentsUploaded counts segments that actually moved (dedup
	// hits do not).
	SegmentsUploaded int
	// BytesUploaded is pre-coding content bytes of uploaded segments.
	BytesUploaded int64
}

// uploadSession is one commit pass's upload: every new segment's plan
// in ONE continuous batch on its own goroutine, availability first and
// on to reliability (paper §6.2). The pass waits for the availability
// instant and commits; a committed pass hands the session to its hold
// (hold.upload), which joins the batch, and what the batch lands after
// the commit is owed to the next lock hold (settle). Every path ends in
// close.
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
	src  *erasure.Source
}

// startUpload plans every segment the changes add that is not in the
// multi-cloud yet and starts their batch: each changed file's segments
// go up in order, every cloud's idle connection taking the first block
// queued for it ("all networking resources are immediately assigned to
// the next file"), with over-provisioned extras until the batch is
// available and the queued fair shares alone after that.
//
// A tenant has one open batch at the FairScheduler, whose EndBatch
// clears all of the tenant's waiting marks: the last pass's batch, still
// running in its hold, is waited for first (core.tail.upload_joins).
func (c *Client) startUpload(ctx context.Context, changes []*meta.Change) (*uploadSession, error) {
	if c.last.uploading() {
		c.cfg.Obs.Counter("core.tail.upload_joins").Inc()
		c.last.Wait()
	}
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
				src.Release()
				s.release()
				return nil, err
			}
			// Blocks surviving a crashed pass (adopted by recovery) count
			// as already uploaded; stamp checksums them from this
			// segment's bytes like any landed block.
			for blockID, cloudName := range c.takeRecovered(seg.ID) {
				plan.SeedUploaded(blockID, cloudName)
			}
			seen[seg.ID] = true
			s.plans = append(s.plans, sessionSegment{seg: seg, plan: plan, src: src})
			if !plan.Available() { // a resumed segment available already moves no content
				s.outcome.SegmentsUploaded++
				s.outcome.BytesUploaded += int64(seg.Length)
			}
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
		items[i] = transfer.UploadItem{Plan: p.plan, SegID: p.seg.ID, Src: p.src.Block}
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

// small reports whether the batch is small enough to upload beside the
// commit's lock round: it goes out in one dispatch (every cloud's share
// of the normal blocks fits in its connections) and carries at most one
// segment's worth of content, θ. Its upload then takes about one block
// round trip, no longer than a lock round. A larger batch spends its
// time in the data plane, where the lock round is a small share of the
// pass, and beside the blocks its requests queue behind theirs and slow
// them: more is lost than saved.
func (s *uploadSession) small() bool {
	return len(s.plans)*s.c.params.FairShare() <= s.c.cfg.ConnsPerCloud &&
		s.outcome.BytesUploaded <= int64(s.c.cfg.Theta)
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
		p.src.Release()
	}
}

// stamp writes the placements landed so far into every change record
// that references an uploaded segment, with each block's content
// checksum from the still-live coding buffers — the cheapest possible
// moment: the encoded bytes are already in memory. Only landed blocks
// are named (plan.Placement), never blocks in flight, so a commit of
// these records keeps blocks-before-metadata while the batch runs on.
// Blocks only accumulate, so a second stamp — the commit's, under the
// lock — adds what landed since the first and checksums only those. It
// returns the placements by segment for the journal.
func (s *uploadSession) stamp(changes []*meta.Change) map[string]map[int]string {
	placements := make(map[string]map[int]string, len(s.plans))
	sources := make(map[string]*erasure.Source, len(s.plans))
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
			for blockID, cloudName := range pl {
				if !seg.HasBlock(blockID, cloudName) {
					seg.AddBlockSum(blockID, cloudName, blockSum(sources[seg.ID], blockID))
				}
			}
			// A placement below the fair-share target is committed thin:
			// a crash before the final placement is recorded leaves a
			// record the scrubber knows to re-expand.
			seg.Thin = len(seg.Blocks) < s.c.normalTarget(seg)
		}
	}
	return placements
}

// settle compares the joined batch's final placements with what the
// commit named and returns, by segment, the blocks that landed after
// the stamp — the paper's callback-updated Cloud-ID fields, owed to the
// device's next lock hold. Nothing when the commit already named the
// full placement.
func (s *uploadSession) settle() (landed map[string][]meta.BlockLocation) {
	for _, p := range s.plans {
		placement := p.plan.Placement()
		if len(placement) < s.c.normalTarget(p.seg) {
			// The batch could not reach fair share — quota pressure left
			// the segment under-replicated. It stays committed thin;
			// scrub/rebalance re-expand it when space returns.
			s.c.cfg.Obs.Counter("core.commit.thin_segments").Inc()
		}
		for blockID, cloudName := range placement {
			if p.seg.HasBlock(blockID, cloudName) {
				continue
			}
			if landed == nil {
				landed = make(map[string][]meta.BlockLocation)
			}
			landed[p.seg.ID] = append(landed[p.seg.ID],
				meta.BlockLocation{BlockID: blockID, CloudID: cloudName, Checksum: blockSum(p.src, blockID)})
		}
	}
	return landed
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
func (st *stack) normalTarget(seg *meta.Segment) int {
	n := st.params.NormalBlocks()
	if n > seg.N {
		n = seg.N
	}
	return n
}

// blockSource is the segment's block source over its cached content:
// the normal blocks are encoded in one fused pass, any extra on demand.
// The caller releases it once no upload reads its blocks
// (uploadSession.close).
func (c *Client) blockSource(seg *meta.Segment) (*erasure.Source, error) {
	data, ok := c.cachedSegment(seg.ID)
	if !ok {
		return nil, fmt.Errorf("core: no cached content for segment %s", seg.ID)
	}
	coder, err := erasure.CoderFor(seg.K, seg.N)
	if err != nil {
		return nil, err
	}
	return erasure.NewSource(coder, data, c.normalTarget(seg)), nil
}

// blockSum returns the content checksum of one coded block, encoding
// the block on demand. Zero, which no decoder accepts, only for an
// out-of-range ID, which upstream scheduling never produces.
func blockSum(src *erasure.Source, blockID int) uint32 {
	b, err := src.Block(blockID)
	if err != nil {
		return 0
	}
	return meta.BlockSum(b)
}
