package transfer

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/sched"
)

// BlockSource supplies block content by erasure-code index; the core
// layer backs it with pre-encoded normal blocks and on-demand
// generation of over-provisioned parity blocks.
//
// Buffer ownership: the returned slice stays owned by the source; the
// engine only reads it between the call and the completion of the
// block's upload. Since UploadSegment/UploadBatch drain all in-flight
// uploads before returning, the source may recycle every buffer it
// handed out as soon as the batch call returns. The same blockID may
// be requested more than once (retries on other clouds) and must
// yield identical content each time.
type BlockSource func(blockID int) ([]byte, error)

// UploadItem is one segment's upload work in a batch.
type UploadItem struct {
	// Plan is the segment's scheduling state machine.
	Plan *sched.UploadPlan
	// SegID names the segment (block files are "<SegID>.<n>").
	SegID string
	// Src supplies block content by erasure-code index.
	Src BlockSource
}

// UploadSegment is UploadBatch for a single plan. Individual cloud
// failures are handled inside the plan.
func (e *Engine) UploadSegment(ctx context.Context, plan *sched.UploadPlan, segID string,
	src BlockSource, available func() bool) error {
	_, err := e.UploadBatch(ctx, []UploadItem{{Plan: plan, SegID: segID, Src: src}}, available)
	return err
}

// uploadBatch is one UploadBatch call's state.
type uploadBatch struct {
	*dispatcher
	ctx   context.Context
	items []UploadItem
	// available is asked before every dispatch until it first holds:
	// the batch's availability instant, availAt, latched in reached.
	available func() bool
	reached   bool
	availAt   time.Time
	// rankBytes is the transfer size clouds are ranked for: the largest
	// block landed so far. The first dispatch ranks by latency alone,
	// which costs nothing — every cloud has idle connections and its own
	// fair share to send; the order only decides who gets the extras.
	rankBytes int64
	bytesOK   int64
}

// moveCounter names the counter of blocks an exclusion re-planned.
var moveCounter = map[sched.Reason]string{
	sched.Dead: "transfer.up.failover_blocks",
	sched.Full: "transfer.up.quota_blocks",
}

// UploadBatch runs several segments' upload plans through one
// dispatcher, realizing the paper's availability-first pipeline:
// whenever a connection to a cloud is idle, the FIRST item in batch
// order with work for that cloud gets it — so early files' remaining
// blocks on slow clouds drain in the background while fast clouds
// already push later files.
//
// The batch runs until every plan is reliable (or runs dry); only
// cancelling ctx ends it early, and blocks in flight are drained
// before it returns either way. available marks the availability
// instant — the first moment it holds, all-plans-available when the
// caller tests that — which is the returned time (the batch's end when
// it never held). Over-provisioned blocks exist to reach that instant
// sooner (paper §6.2), so from then on the plans hand out their queued
// normal blocks only: every cloud's connections stay fed until its
// fair share is up, and no extra is bought that could make nothing
// available earlier. With a nil predicate extras flow until the plans
// are reliable.
func (e *Engine) UploadBatch(ctx context.Context, items []UploadItem, available func() bool) (time.Time, error) {
	u := &uploadBatch{dispatcher: e.newDispatcher(len(items)), ctx: ctx, items: items, available: available}
	u.replan = u.replanAround
	for _, it := range items {
		it.Plan.SetObs(e.cfg.Obs)
	}
	u.requeueAll()
	start := e.cfg.Clock.Now()
	u.run(ctx, u.dispatch, u.handle)
	end := e.cfg.Clock.Now()
	if !u.reached {
		u.availAt = end
	}
	if secs := end.Sub(start).Seconds(); secs > 0 && u.bytesOK > 0 {
		// Goodput: successfully transferred payload over the whole
		// batch's wall time, the number the paper's Figure 9 plots.
		e.cfg.Obs.Gauge("transfer.up.goodput_bps").Set(float64(u.bytesOK) / secs)
	}
	return u.availAt, ctx.Err()
}

// replanAround is the mid-transfer failover and its quota-exhaustion
// analogue: each plan's still-queued normal blocks for the excluded
// cloud are re-planned onto the clouds still accepting writes, ranked
// healthiest first, within the per-cloud placement bound (paper §4.2).
func (u *uploadBatch) replanAround(cloudName string, reason sched.Reason) bool {
	open := make([]string, 0, len(u.e.names))
	for _, n := range u.e.names {
		if u.excluded[n] == 0 {
			open = append(open, n)
		}
	}
	ranked := u.e.elig.WriteTargets(open)
	moved := 0
	for _, it := range u.items {
		moved += it.Plan.Exclude(cloudName, reason, ranked)
	}
	if moved > 0 {
		u.e.cfg.Obs.Counter(moveCounter[reason]).Add(int64(moved))
	}
	return moved > 0
}

// dispatch hands idle connections the work queued for their cloud.
// Fastest clouds get first pick of the work (and of the
// over-provisioned extras).
func (u *uploadBatch) dispatch() {
	if !u.reached && u.available != nil && u.available() {
		u.reached = true
		u.availAt = u.e.cfg.Clock.Now()
	}
	if u.ctx.Err() != nil {
		return // the predicate may cancel the batch it watches
	}
	e, reg := u.e, u.e.cfg.Obs
	for _, name := range e.prober.Rank(e.names, sched.Up, u.rankBytes) {
		switch {
		case u.excluded[name] != 0:
		case !e.elig.ServesReads(name):
			// Open breaker: route this cloud's blocks elsewhere instead
			// of queuing work it would only reject.
			reg.Counter("transfer.up.breaker_routed").Inc()
			u.exclude(name, sched.Dead)
		case !e.elig.AcceptsWrites(name):
			// The capacity tracker already knows this cloud is full (an
			// earlier batch, or another subsystem, hit its quota): route
			// its blocks to clouds with space instead of queuing uploads
			// it would only reject.
			reg.Counter("transfer.up.quota_routed").Inc()
			u.exclude(name, sched.Full)
		default:
			u.fill(name)
		}
	}
}

// fill launches queued blocks on the cloud's idle connections.
func (u *uploadBatch) fill(name string) {
	for u.idle[name] > 0 && len(u.pending[name]) > 0 {
		// The shared slot is claimed BEFORE NextBlock: NextBlock assigns
		// the block to this cloud, and a refusal after the fact would
		// leave it assigned with no transfer.
		if !u.acquireFair(name) {
			return
		}
		if !u.launchNext(name) {
			u.releaseFair(name)
			return
		}
	}
}

// launchNext starts the first block any queued item has for the
// cloud, dropping the entries whose plan has none. It reports false
// when the queue ran out.
func (u *uploadBatch) launchNext(name string) bool {
	q := u.pending[name]
	for len(q) > 0 {
		it := u.items[q[0]]
		if blockID, ok := it.Plan.NextBlock(name, !u.reached); ok {
			u.pending[name] = q
			u.take(name)
			go u.e.uploadBlock(u.ctx, u.results, q[0], name, it.SegID, blockID, it.Src)
			return true
		}
		q = q[1:]
	}
	u.pending[name] = q
	return false
}

func (u *uploadBatch) handle(r result) {
	reg := u.e.cfg.Obs
	reg.Counter("transfer.up.retries").Add(int64(r.attempts - 1))
	if u.reached {
		// The batch was already available when this block finished: it
		// went up for reliability, not for the availability instant.
		reg.Counter("transfer.up.stragglers").Inc()
	}
	plan := u.items[r.item].Plan
	if r.err != nil {
		u.failed(r, plan)
	} else {
		reg.Counter("transfer.up.blocks").Inc()
		reg.Counter("transfer.up.bytes").Add(r.size)
		reg.Histogram("transfer.up.block_seconds").ObserveDuration(r.dur)
		if r.blockID >= plan.Params().NormalBlocks() {
			reg.Counter("transfer.up.overprovisioned").Inc()
		}
		u.bytesOK += r.size
		if r.size > u.rankBytes {
			u.rankBytes = r.size
		}
		plan.Complete(r.cloudName, r.blockID)
		u.markOutcome(r.cloudName, nil)
	}
	// A failed block is back on some open cloud's queue. A landed one
	// can unlock work that NextBlock refused earlier — the uploader's
	// own fair share completing opens its over-provisioning budget, and
	// any completion can free the spare slots held back for orphaned
	// blocks. Either way, make the item findable on every open queue
	// again.
	u.requeue(r.item)
}

// failed handles a block that did not land: the cloud is excluded if
// the error (or the streak of errors) says so, and the block goes back
// to its plan, which re-homes it when its cloud is gone.
func (u *uploadBatch) failed(r result, plan *sched.UploadPlan) {
	reg := u.e.cfg.Obs
	reg.Counter("transfer.up.blocks_failed").Inc()
	if u.ctx.Err() != nil {
		// A cancelled batch's aborted requests say nothing about the
		// cloud: the caller's commit failed while the reliability tail
		// was still uploading. No streak, no exclusion, no prober penalty.
		plan.Fail(r.cloudName, r.blockID)
		return
	}
	reason := sched.Dead
	if errors.Is(r.err, cloud.ErrQuotaExceeded) {
		// Quota exhaustion is a PLACEMENT failure, not a health failure:
		// the provider answered promptly and correctly — it is merely out
		// of space. Re-plan the cloud's blocks elsewhere; no retry
		// (cloud.Retry already bailed), no dead streak, no breaker
		// evidence, no prober penalty.
		reason = sched.Full
		reg.Counter("transfer.up.quota_rejected_blocks").Inc()
		u.exclude(r.cloudName, sched.Full)
	} else {
		if u.markOutcome(r.cloudName, r.err) {
			reg.Counter("transfer.clouds_marked_dead").Inc()
			u.exclude(r.cloudName, sched.Dead)
		}
		u.e.prober.ObserveFailure(r.cloudName, sched.Up)
	}
	// The cloud is written off first so that Fail reroutes this
	// in-flight block onto an open cloud's queue instead of requeueing
	// it on the excluded one — that is a failover (or quota) move too.
	if u.excluded[r.cloudName]&reason != 0 {
		reg.Counter(moveCounter[reason]).Inc()
	}
	plan.Fail(r.cloudName, r.blockID)
}

func (e *Engine) uploadBlock(ctx context.Context, results chan<- result, item int,
	cloudName, segID string, blockID int, src BlockSource) {

	data, err := src(blockID)
	if err != nil {
		results <- result{item: item, cloudName: cloudName, blockID: blockID,
			err: fmt.Errorf("transfer: block source: %w", err)}
		return
	}
	c := e.clouds[cloudName]
	path := e.BlockPath(segID, blockID)
	start := e.cfg.Clock.Now()
	attempts := 0
	err = cloud.Retry(ctx, e.retryPolicy(), func() error {
		attempts++
		return c.Upload(ctx, path, data)
	})
	results <- result{
		item:      item,
		cloudName: cloudName,
		blockID:   blockID,
		size:      int64(len(data)),
		dur:       e.cfg.Clock.Now().Sub(start),
		attempts:  attempts,
		err:       err,
	}
}
