// Package transfer is UniDrive's data-plane engine: it executes
// upload and download plans over the clouds with multiple concurrent
// connections per cloud, schedules them on the in-channel prober's
// estimates (fed by the Probing wrapper around each cloud), retries
// transient Web API failures, and excludes clouds that stop
// responding.
//
// The engine is a central dispatcher (paper §7: "priority queuing ...
// multi-threaded file transfer to each cloud"): whenever a connection
// slot is idle it asks the plan for that cloud's next block —
// visiting clouds fastest-first per the prober — launches the
// transfer, and processes completions as they arrive. Dynamic
// decisions (over-provisioning, download source selection by
// estimated finish time) therefore happen block by block on live
// latency and bandwidth estimates.
package transfer

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/health"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

// DefaultBlockDir is where coded blocks live on every cloud.
const DefaultBlockDir = ".unidrive/blocks"

// DefaultConnsPerCloud matches the paper's evaluation setup ("we use
// up to 5 connections to each cloud").
const DefaultConnsPerCloud = 5

// Config parametrizes an Engine.
type Config struct {
	// ConnsPerCloud is the maximum concurrent transfers per cloud.
	ConnsPerCloud int
	// BlockDir is the cloud directory for coded blocks.
	BlockDir string
	// RetryAttempts is how many times a single block transfer is
	// tried against one cloud before counting as a failure.
	RetryAttempts int
	// DeadAfter is the number of consecutive failed block transfers
	// after which a cloud is excluded from the current plan.
	DeadAfter int
	// Clock paces retry backoff; defaults to the real clock.
	Clock vclock.Clock
	// Obs receives the engine's metrics (per-block retries, straggler
	// drains, occupancy, goodput). nil disables recording.
	Obs *obs.Registry
	// Health, when non-nil, gates dispatch on the per-cloud circuit
	// breakers: clouds whose breaker is open receive no new blocks —
	// uploads fail over their queued blocks to healthy clouds, and
	// downloads treat them as dead for the batch.
	Health *health.Tracker
	// Capacity, when non-nil, gates UPLOAD dispatch on per-cloud quota
	// state: clouds the tracker reports Full receive no new blocks
	// (their queued blocks re-plan onto clouds with space, within the
	// placement bound), and an ErrQuotaExceeded result is classified
	// as a placement failure — re-plan, never retry, never breaker
	// evidence. Downloads are unaffected: a full cloud still serves
	// every read. nil disables capacity gating.
	Capacity *capacity.Tracker
	// HedgeQuantile is the latency quantile of the observed download
	// block histogram past which an in-flight download counts as a
	// straggler and earns a duplicate (hedged) request on a spare
	// cloud. Default 0.95.
	HedgeQuantile float64
	// HedgeMinSamples is the minimum histogram population before the
	// quantile deadline is trusted; below it HedgeFallbackDelay is
	// used. Default 8.
	HedgeMinSamples int
	// HedgeFallbackDelay is the straggler deadline used while the
	// latency histogram has too few samples (or Obs is nil). Default
	// 30s, far above any healthy block time, so hedging effectively
	// waits for real latency data unless a cloud is truly stuck.
	HedgeFallbackDelay time.Duration
	// Fair, when non-nil, is a weighted-fair connection scheduler
	// shared by every engine in the process (one engine per tenant):
	// each launched transfer additionally claims a (cloud, Tenant)
	// slot from it, so the process-wide per-cloud connection budget is
	// enforced once and one tenant saturating a cloud cannot starve
	// the rest. nil preserves the single-tenant behaviour exactly.
	Fair *FairScheduler
	// Tenant names this engine's owner to the shared scheduler (the
	// daemon uses the tenant ID). Only meaningful with Fair set.
	Tenant string
}

func (c *Config) fillDefaults() {
	if c.ConnsPerCloud <= 0 {
		c.ConnsPerCloud = DefaultConnsPerCloud
	}
	if c.BlockDir == "" {
		c.BlockDir = DefaultBlockDir
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 3
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMinSamples <= 0 {
		c.HedgeMinSamples = 8
	}
	if c.HedgeFallbackDelay <= 0 {
		c.HedgeFallbackDelay = 30 * time.Second
	}
}

// Engine executes plans over a fixed set of clouds. Safe for
// concurrent use by independent plan runs.
type Engine struct {
	clouds map[string]cloud.Interface
	names  []string
	prober *sched.Prober
	cfg    Config
}

// New creates an engine over the given clouds. prober may be shared
// with other engines on the same device (it should be: probing
// history is per device, not per file).
func New(clouds []cloud.Interface, prober *sched.Prober, cfg Config) *Engine {
	if len(clouds) == 0 {
		panic("transfer: no clouds")
	}
	if prober == nil {
		panic("transfer: nil prober")
	}
	cfg.fillDefaults()
	m := make(map[string]cloud.Interface, len(clouds))
	names := make([]string, 0, len(clouds))
	for _, c := range clouds {
		m[c.Name()] = c
		names = append(names, c.Name())
	}
	sort.Strings(names)
	return &Engine{clouds: m, names: names, prober: prober, cfg: cfg}
}

// Prober returns the engine's prober.
func (e *Engine) Prober() *sched.Prober { return e.prober }

// BlockDir returns the cloud directory used for coded blocks.
func (e *Engine) BlockDir() string { return e.cfg.BlockDir }

// BlockPath returns the cloud path of one coded block.
func (e *Engine) BlockPath(segID string, blockID int) string {
	return cloud.JoinPath(e.cfg.BlockDir, meta.BlockName(segID, blockID))
}

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

// result is one finished transfer reported back to the dispatcher.
type result struct {
	item      int
	cloudName string
	blockID   int
	data      []byte
	size      int64
	dur       time.Duration
	attempts  int
	err       error
}

// dispatcher tracks idle connection slots, consecutive failures, and
// which clouds this batch has written off.
type dispatcher struct {
	e      *Engine
	idle   map[string]int
	streak map[string]int
	dead   map[string]bool
	// full marks clouds written off for UPLOADS this batch because
	// their quota is exhausted; unlike dead they still serve download
	// batches (and everything else) normally.
	full    map[string]bool
	active  int
	results chan result
	// fairDenied records that the last dispatch pass was refused a
	// slot by the shared scheduler; with nothing in flight the batch
	// then blocks on FairScheduler.Changed instead of spinning (or,
	// worse, returning with work left).
	fairDenied bool
}

func (e *Engine) newDispatcher() *dispatcher {
	d := &dispatcher{
		e:       e,
		idle:    make(map[string]int, len(e.names)),
		streak:  make(map[string]int, len(e.names)),
		dead:    make(map[string]bool, len(e.names)),
		full:    make(map[string]bool, len(e.names)),
		results: make(chan result),
	}
	for _, n := range e.names {
		d.idle[n] = e.cfg.ConnsPerCloud
	}
	return d
}

// take claims an idle connection slot on cloudName and publishes the
// new occupancy.
func (d *dispatcher) take(cloudName string) {
	d.idle[cloudName]--
	d.active++
	reg := d.e.cfg.Obs
	reg.Gauge("transfer.occupancy." + cloudName).Set(float64(d.e.cfg.ConnsPerCloud - d.idle[cloudName]))
	reg.Gauge("transfer.active").Set(float64(d.active))
}

// release returns a connection slot (local and shared) and publishes
// the new occupancy. Every in-flight transfer holds exactly one
// shared-scheduler slot, claimed by dispatch or the hedge path before
// launch.
func (d *dispatcher) release(cloudName string) {
	d.idle[cloudName]++
	d.active--
	d.releaseFair(cloudName)
	reg := d.e.cfg.Obs
	reg.Gauge("transfer.occupancy." + cloudName).Set(float64(d.e.cfg.ConnsPerCloud - d.idle[cloudName]))
	reg.Gauge("transfer.active").Set(float64(d.active))
}

// acquireFair claims a shared-scheduler slot for the cloud, or
// records the refusal. Always true without a shared scheduler.
func (d *dispatcher) acquireFair(cloudName string) bool {
	f := d.e.cfg.Fair
	if f == nil {
		return true
	}
	if f.Acquire(cloudName, d.e.cfg.Tenant) {
		return true
	}
	d.fairDenied = true
	d.e.cfg.Obs.Counter("transfer.fair.denied").Inc()
	return false
}

// releaseFair returns a shared-scheduler slot, if one is in use.
func (d *dispatcher) releaseFair(cloudName string) {
	if f := d.e.cfg.Fair; f != nil {
		f.Release(cloudName, d.e.cfg.Tenant)
	}
}

// awaitFair blocks until the shared scheduler's state changes (or ctx
// ends) after a refused dispatch with nothing in flight. It returns
// true when the caller should re-dispatch. The Changed generation is
// captured before one more dispatch attempt by the caller pattern in
// Upload/DownloadBatch, so wakeups cannot be lost.
func (e *Engine) awaitFair(ctx context.Context, ch <-chan struct{}) bool {
	e.cfg.Obs.Counter("transfer.fair.waits").Inc()
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		return false
	}
}

// retryPolicy builds the per-block retry policy using the engine's
// clock for backoff. Backoff waits go through Clock.After so a hedge
// winner's cancellation interrupts a loser stuck mid-backoff.
func (e *Engine) retryPolicy() cloud.RetryPolicy {
	p := cloud.DefaultRetryPolicy(nil)
	p.After = e.cfg.Clock.After
	p.MaxAttempts = e.cfg.RetryAttempts
	return p
}

// admits reports whether the health tracker (if any) currently admits
// traffic to the cloud.
func (e *Engine) admits(name string) bool {
	return e.cfg.Health == nil || e.cfg.Health.Admits(name)
}

// admitsUploads reports whether the capacity tracker (if any)
// currently admits NEW upload work to the cloud. Downloads never
// consult it. (A nil *capacity.Tracker admits everything.)
func (e *Engine) admitsUploads(name string) bool {
	return e.cfg.Capacity.Admits(name)
}

// markOutcome updates failure streaks; it returns true when the cloud
// should be excluded from the plan. A circuit-breaker rejection means
// the health layer already judged the cloud down — exclude it without
// burning a failure streak on it.
func (d *dispatcher) markOutcome(cloudName string, err error) (dead bool) {
	if err == nil {
		d.streak[cloudName] = 0
		return false
	}
	if errors.Is(err, cloud.ErrUnavailable) || errors.Is(err, cloud.ErrCircuitOpen) {
		return true
	}
	d.streak[cloudName]++
	return d.streak[cloudName] >= d.e.cfg.DeadAfter
}

// UploadItem is one segment's upload work in a batch.
type UploadItem struct {
	// Plan is the segment's scheduling state machine.
	Plan *sched.UploadPlan
	// SegID names the segment (block files are "<SegID>.<n>").
	SegID string
	// Src supplies block content by erasure-code index.
	Src BlockSource
}

// UploadSegment runs a single upload plan until the stop condition
// holds (nil means: until the plan has no more work anywhere).
// Individual cloud failures are handled inside the plan.
func (e *Engine) UploadSegment(ctx context.Context, plan *sched.UploadPlan, segID string,
	src BlockSource, stop func() bool) error {
	_, err := e.UploadBatch(ctx, []UploadItem{{Plan: plan, SegID: segID, Src: src}}, stop)
	return err
}

// UploadBatch runs several segments' upload plans through one
// dispatcher, realizing the paper's availability-first pipeline:
// whenever a connection to a cloud is idle, the FIRST item in batch
// order with work for that cloud gets it — so early files' remaining
// blocks on slow clouds drain in the background while fast clouds
// already push later files.
//
// Dispatching stops when stop() turns true (or every plan runs dry);
// blocks already in flight are drained before returning. The returned
// time is the moment the stop condition was first observed — the
// batch's availability instant when stop tests all-plans-available —
// which precedes the drain.
func (e *Engine) UploadBatch(ctx context.Context, items []UploadItem, stop func() bool) (time.Time, error) {
	d := e.newDispatcher()
	for _, it := range items {
		it.Plan.SetObs(e.cfg.Obs)
	}
	// rankBytes is the transfer size clouds are ranked for: the largest
	// block landed so far. The first dispatch ranks by latency alone,
	// which costs nothing — every cloud has idle connections and its own
	// fair share to send; the order only decides who gets the extras.
	var rankBytes int64
	batchStart := e.cfg.Clock.Now()
	var bytesOK int64
	stopped := false
	stopAt := e.cfg.Clock.Now()
	checkStop := func() bool {
		if stopped {
			return true
		}
		if stop != nil && stop() {
			stopped = true
			stopAt = e.cfg.Clock.Now()
		}
		return stopped
	}
	reg := e.cfg.Obs
	// pending[cloud] queues the indices of items that may still have
	// blocks for that cloud. Dispatch serves the front entry and pops
	// entries whose plan ran dry for the cloud; anything that re-routes
	// blocks (a failed block, a failover) re-appends the affected items.
	// Duplicates are harmless — an exhausted entry just pops. This keeps
	// finding the next block O(1) amortized instead of rescanning the
	// whole batch per landed block, which is the difference between
	// O(blocks) and O(blocks × items) for a 50k-segment commit.
	pending := make(map[string][]int, len(e.names))
	for _, name := range e.names {
		q := make([]int, len(items))
		for i := range q {
			q[i] = i
		}
		pending[name] = q
	}
	requeueItem := func(item int) {
		for _, name := range e.names {
			if !d.dead[name] && !d.full[name] {
				pending[name] = append(pending[name], item)
			}
		}
	}
	// liveTargets lists the clouds still eligible for re-planned
	// upload work, ranked healthiest-first and with quota-full clouds
	// filtered out (Probing ones last — a probe is a last resort).
	liveTargets := func(except string) []string {
		live := make([]string, 0, len(e.names))
		for _, n := range e.names {
			if n != except && !d.dead[n] && !d.full[n] && e.admits(n) {
				live = append(live, n)
			}
		}
		if e.cfg.Health != nil {
			live = e.cfg.Health.Healthiest(live)
		}
		return e.cfg.Capacity.WithSpace(live)
	}
	// requeueOn makes every item findable again on the given clouds'
	// queues after blocks were re-planned onto them.
	requeueOn := func(targets []string) {
		for _, n := range targets {
			q := pending[n]
			for i := range items {
				q = append(q, i)
			}
			pending[n] = q
		}
	}
	// failover is the mid-transfer failover path: the cloud is written
	// off for this batch and each plan's still-queued normal blocks
	// are re-planned onto the healthiest live clouds, within the
	// per-cloud placement bound (paper §4.2).
	failover := func(name string) {
		if d.dead[name] {
			return
		}
		d.dead[name] = true
		ranked := liveTargets(name)
		moved := 0
		for _, it := range items {
			moved += it.Plan.MarkDeadAndReassign(name, ranked)
		}
		if moved > 0 {
			reg.Counter("transfer.up.failover_blocks").Add(int64(moved))
			// The moved blocks landed on live clouds' queues; their
			// items must be findable there again.
			requeueOn(ranked)
		}
	}
	// markFull is the quota-exhaustion analogue of failover: the cloud
	// stops receiving new upload work for this batch and each plan's
	// still-queued normal blocks re-plan onto clouds with space —
	// but the cloud is NOT dead: concurrent download batches, lists
	// and lock traffic keep using it.
	markFull := func(name string) {
		if d.full[name] || d.dead[name] {
			return
		}
		d.full[name] = true
		reg.Counter("transfer.clouds_marked_full").Inc()
		ranked := liveTargets(name)
		moved := 0
		for _, it := range items {
			moved += it.Plan.MarkFullAndReassign(name, ranked)
		}
		if moved > 0 {
			reg.Counter("transfer.up.quota_blocks").Add(int64(moved))
			requeueOn(ranked)
		}
	}
	dispatch := func() {
		if checkStop() {
			return
		}
		// Fastest clouds get first pick of the work (and of the
		// over-provisioned extras).
		for _, name := range e.prober.Rank(e.names, sched.Up, rankBytes) {
			if d.dead[name] || d.full[name] {
				continue
			}
			if !e.admits(name) {
				// Open breaker: route this cloud's blocks elsewhere
				// instead of queuing work it would only reject.
				reg.Counter("transfer.up.breaker_routed").Inc()
				failover(name)
				continue
			}
			if !e.admitsUploads(name) {
				// The capacity tracker already knows this cloud is full
				// (an earlier batch, or another subsystem, hit its
				// quota): route its blocks to clouds with space instead
				// of queuing uploads it would only reject.
				reg.Counter("transfer.up.quota_routed").Inc()
				markFull(name)
				continue
			}
			for d.idle[name] > 0 {
				if checkStop() {
					return
				}
				if len(pending[name]) == 0 {
					break
				}
				// The shared slot is claimed BEFORE NextBlock: NextBlock
				// assigns the block to this cloud, and a refusal after
				// the fact would leave it assigned with no transfer.
				if !d.acquireFair(name) {
					break
				}
				q := pending[name]
				dispatched := false
				for len(q) > 0 {
					i := q[0]
					blockID, ok := items[i].Plan.NextBlock(name)
					if !ok {
						q = q[1:]
						continue
					}
					d.take(name)
					go e.uploadBlock(ctx, d.results, i, name, items[i].SegID, blockID, items[i].Src)
					dispatched = true
					break
				}
				pending[name] = q
				if !dispatched {
					d.releaseFair(name)
					break
				}
			}
		}
	}

	if f := e.cfg.Fair; f != nil {
		defer f.EndBatch(e.cfg.Tenant)
	}
	dispatch()
	for {
		if d.active == 0 {
			if stopped || ctx.Err() != nil || !d.fairDenied {
				break
			}
			// Work remains but every slot belongs to other tenants.
			// Capture the change generation, retry once (a slot may
			// have freed since the refusal), then sleep on it.
			ch := e.cfg.Fair.Changed()
			d.fairDenied = false
			dispatch()
			if d.active > 0 || !d.fairDenied {
				continue
			}
			if !e.awaitFair(ctx, ch) {
				break
			}
			d.fairDenied = false
			dispatch()
			continue
		}
		r := <-d.results
		d.release(r.cloudName)
		reg.Counter("transfer.up.retries").Add(int64(r.attempts - 1))
		if stopped {
			// The stop condition already held when this block landed:
			// it was a straggler drained for reliability, not for the
			// availability instant.
			reg.Counter("transfer.up.stragglers").Inc()
		}
		plan := items[r.item].Plan
		if r.err != nil {
			reg.Counter("transfer.up.blocks_failed").Inc()
			if errors.Is(r.err, cloud.ErrQuotaExceeded) {
				// Quota exhaustion is a PLACEMENT failure, not a health
				// failure: the provider answered promptly and correctly —
				// it is merely out of space. Re-plan the cloud's blocks
				// elsewhere; no retry (cloud.Retry already bailed), no
				// dead streak, no breaker evidence, no prober penalty.
				reg.Counter("transfer.up.quota_rejected_blocks").Inc()
				markFull(r.cloudName)
				if d.full[r.cloudName] {
					// Fail below reroutes this in-flight block onto a
					// cloud with space — a quota move too.
					reg.Counter("transfer.up.quota_blocks").Inc()
				}
				plan.Fail(r.cloudName, r.blockID)
				requeueItem(r.item)
			} else {
				if d.markOutcome(r.cloudName, r.err) {
					// Write the cloud off first so Fail reroutes the failed
					// block to a live cloud instead of requeueing it on the
					// dead one.
					reg.Counter("transfer.clouds_marked_dead").Inc()
					failover(r.cloudName)
				}
				if d.dead[r.cloudName] {
					// Fail on a dead cloud reroutes the in-flight block onto
					// a live queue — that is a failover move too.
					reg.Counter("transfer.up.failover_blocks").Inc()
				}
				plan.Fail(r.cloudName, r.blockID)
				// Fail re-routes the block onto some live cloud's queue;
				// make the item findable there again.
				requeueItem(r.item)
				e.prober.ObserveFailure(r.cloudName, sched.Up)
			}
		} else {
			reg.Counter("transfer.up.blocks").Inc()
			reg.Counter("transfer.up.bytes").Add(r.size)
			reg.Histogram("transfer.up.block_seconds").ObserveDuration(r.dur)
			if r.blockID >= plan.Params().NormalBlocks() {
				reg.Counter("transfer.up.overprovisioned").Inc()
			}
			bytesOK += r.size
			if r.size > rankBytes {
				rankBytes = r.size
			}
			plan.Complete(r.cloudName, r.blockID)
			// A landed block can unlock work that NextBlock refused
			// earlier — the uploader's own fair share completing opens
			// its over-provisioning budget, and any completion can free
			// the spare slots held back for orphaned blocks. Make the
			// item findable on every live queue again.
			requeueItem(r.item)
			d.markOutcome(r.cloudName, nil)
		}
		if ctx.Err() != nil {
			// Stop dispatching; drain what is in flight.
			continue
		}
		dispatch()
	}
	if !stopped {
		stopAt = e.cfg.Clock.Now()
	}
	if secs := e.cfg.Clock.Now().Sub(batchStart).Seconds(); secs > 0 && bytesOK > 0 {
		// Goodput: successfully transferred payload over the whole
		// batch's wall time, the number the paper's Figure 9 plots.
		reg.Gauge("transfer.up.goodput_bps").Set(float64(bytesOK) / secs)
	}
	return stopAt, ctx.Err()
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

// ErrSegmentUnrecoverable reports that fewer than K blocks of a
// segment are reachable.
var ErrSegmentUnrecoverable = errors.New("transfer: segment unrecoverable with reachable clouds")

// DownloadItem is one segment's download work in a batch.
type DownloadItem struct {
	// Plan is the segment's retrieval state machine.
	Plan *sched.DownloadPlan
	// SegID names the segment.
	SegID string
	// Size is the expected size of one coded block, ⌈segment length ÷
	// K⌉ — what the dispatcher asks the prober to estimate when it
	// picks a source. Zero (unknown) selects by latency alone.
	Size int64
	// Done, when non-nil, is invoked once from the dispatcher as soon
	// as this item's plan completes, with the item's fetched blocks —
	// before the rest of the batch finishes. Callers use it to
	// assemble and deliver early files while later files still
	// transfer (the paper's per-file completion). It must return
	// quickly: it runs on the dispatcher goroutine.
	//
	// Serialization contract: every Done callback of a batch runs on
	// the single goroutine that called DownloadBatch, strictly one at
	// a time, and the last one returns before DownloadBatch does.
	// Callers may therefore mutate shared un-synchronized state
	// (accumulators, error maps) from Done without locking — the core
	// apply path depends on this.
	Done func(blocks map[int][]byte)
	// Sums carries the expected content checksum (meta.BlockSum) per
	// block ID. A fetched block whose content does not match is
	// treated as a failed transfer — counted under
	// transfer.down.corrupt_blocks, reported to the health tracker,
	// and re-planned onto another holder — instead of being handed to
	// the caller. Blocks absent from the map (or mapped to 0) are
	// pre-checksum metadata and pass unverified; the decode-time
	// segment SHA check is their safety net.
	Sums map[int]uint32
}

// DownloadSegment runs a single download plan to completion and
// returns the fetched blocks (block ID -> content). It fails with
// ErrSegmentUnrecoverable when fewer than K blocks remain reachable.
func (e *Engine) DownloadSegment(ctx context.Context, plan *sched.DownloadPlan, segID string) (map[int][]byte, error) {
	res, err := e.DownloadBatch(ctx, []DownloadItem{{Plan: plan, SegID: segID}})
	if err != nil {
		return nil, err
	}
	if !plan.Done() {
		return nil, fmt.Errorf("%w: got %d blocks", ErrSegmentUnrecoverable, len(res[0]))
	}
	return res[0], nil
}

// DownloadBatch runs several segments' download plans through one
// dispatcher — an idle connection serves the earliest unfinished
// segment its cloud is admitted for (sched.AdmitDownload: the block
// would not finish later there than by waiting for the faster
// holders) — and returns each item's fetched blocks, indexed like
// items. Individual segments may come back
// incomplete (fewer than K blocks) when too many clouds failed; the
// caller checks each plan's Done.
//
// The fetched block buffers are exclusively the caller's
// (cloud.Interface.Download allocates fresh memory), so the decode
// path is free to recycle them into the erasure buffer pool.
func (e *Engine) DownloadBatch(ctx context.Context, items []DownloadItem) ([]map[int][]byte, error) {
	blocks := make([]map[int][]byte, len(items))
	for i := range blocks {
		blocks[i] = make(map[int][]byte)
	}
	d := e.newDispatcher()
	reg := e.cfg.Obs

	// flights tracks every (item, block) currently being fetched —
	// possibly by two clouds at once when hedged. Each attempt gets
	// its own cancelable context so first-response-wins can cancel
	// the loser.
	type flightKey struct{ item, blockID int }
	type flight struct {
		start   time.Time
		primary string
		// attempts maps each fetching cloud to its cancel func.
		attempts map[string]context.CancelFunc
		// hedged records that hedging was decided (at most once per
		// flight, even when no spare was available); dup records that a
		// duplicate request actually went out — only those flights count
		// toward the win/loss tally.
		hedged bool
		dup    bool
		done   bool
	}
	flights := make(map[flightKey]*flight)

	launch := func(item int, name string, blockID int) {
		actx, cancel := context.WithCancel(ctx)
		key := flightKey{item, blockID}
		f := flights[key]
		if f == nil {
			f = &flight{start: e.cfg.Clock.Now(), primary: name,
				attempts: make(map[string]context.CancelFunc, 2)}
			flights[key] = f
		}
		f.attempts[name] = cancel
		d.take(name)
		go e.downloadBlock(actx, d.results, item, name, items[item].SegID, blockID)
	}

	// pending[cloud] queues the indices of items that may still have
	// blocks for that cloud — same amortization as the upload batch:
	// dispatch pops entries whose plan ran dry for the cloud, and
	// whatever re-routes blocks re-appends the affected items
	// (duplicates pop harmlessly). Without it every landed block
	// rescans the whole batch, O(blocks × items) for large applies.
	pending := make(map[string][]int, len(e.names))
	for _, name := range e.names {
		q := make([]int, len(items))
		for i := range q {
			q[i] = i
		}
		pending[name] = q
	}
	requeueItem := func(item int) {
		for _, name := range e.names {
			if !d.dead[name] {
				pending[name] = append(pending[name], item)
			}
		}
	}

	// markDeadForBatch writes a cloud off for every plan in the batch.
	markDeadForBatch := func(name string) {
		if d.dead[name] {
			return
		}
		d.dead[name] = true
		for _, it := range items {
			it.Plan.MarkDead(name)
		}
		// MarkDead re-routed the dead cloud's blocks onto the other
		// holders' queues; their items must be findable there again.
		for _, n := range e.names {
			if d.dead[n] {
				continue
			}
			q := pending[n]
			for i := range items {
				q = append(q, i)
			}
			pending[n] = q
		}
	}

	// unassigned is the payload the batch has not handed out yet: each
	// plan's K minus its fetched and in-flight blocks, at the item's
	// block size. account(i) re-reads item i's plan after anything that
	// moved it.
	rem := make([]int, len(items))
	var unassigned, rankBytes int64
	account := func(i int) {
		n := items[i].Plan.Unassigned()
		unassigned += int64(n-rem[i]) * items[i].Size
		rem[i] = n
	}
	for i, it := range items {
		account(i)
		if it.Size > rankBytes {
			rankBytes = it.Size
		}
	}

	dispatch := func() {
		// Breakers first, so that every walk below sees the same live set.
		live := make([]string, 0, len(e.names))
		for _, name := range e.prober.Rank(e.names, sched.Down, rankBytes) {
			if d.dead[name] {
				continue
			}
			if !e.admits(name) {
				// Open breaker: treat like an outage for this batch so
				// the plans reroute its blocks to other holders.
				reg.Counter("transfer.down.breaker_routed").Inc()
				markDeadForBatch(name)
				continue
			}
			live = append(live, name)
		}
		others := make([]string, 0, len(live))
		for _, name := range live {
			// Walk the queue in place: entries the plan has nothing for
			// are spent and dropped; entries the admission rule refuses
			// stay (the bar moves with every block handed out), and the
			// walk goes on behind them — a later segment may need this
			// cloud for its K-th block.
			q := pending[name]
			kept := q[:0]
			pos := 0
			for pos < len(q) && d.idle[name] > 0 {
				i := q[pos]
				plan := items[i].Plan
				if !plan.HasWork(name) {
					pos++
					continue
				}
				// The holders that could take this block instead.
				others = others[:0]
				for _, o := range live {
					if o != name && plan.HasWork(o) {
						others = append(others, o)
					}
				}
				if !sched.AdmitDownload(e.prober, plan, name, others,
					e.cfg.ConnsPerCloud, items[i].Size, unassigned) {
					kept = append(kept, i)
					pos++
					continue
				}
				// The shared slot is claimed BEFORE NextBlock, as in the
				// upload path.
				if !d.acquireFair(name) {
					break
				}
				blockID, ok := plan.NextBlock(name)
				if !ok {
					d.releaseFair(name)
					pos++
					continue
				}
				// The entry stays at the front: the plan may hold another
				// block for this cloud.
				launch(i, name, blockID)
				account(i)
			}
			pending[name] = append(kept, q[pos:]...)
		}
	}

	// hedgeDeadline is the straggler threshold: the configured quantile
	// of observed block latencies, falling back to a fixed delay until
	// the histogram is populated (Aktaş et al.: duplicate the slow
	// reads, take the fastest responses).
	hedgeDeadline := func() time.Duration {
		if e.cfg.Obs != nil {
			h := e.cfg.Obs.Histogram("transfer.down.block_seconds")
			if h.Count() >= int64(e.cfg.HedgeMinSamples) {
				if q := h.Quantile(e.cfg.HedgeQuantile); q > 0 {
					return time.Duration(q * float64(time.Second))
				}
			}
		}
		return e.cfg.HedgeFallbackDelay
	}

	// launchHedges issues one duplicate request for every flight past
	// the deadline, on the healthiest spare cloud that holds the block
	// and has an idle connection. A flight is hedged at most once.
	launchHedges := func(deadline time.Duration) {
		now := e.cfg.Clock.Now()
		for key, f := range flights {
			if f.done || f.hedged || now.Before(f.start.Add(deadline)) {
				continue
			}
			f.hedged = true
			placed := false
			cands := items[key.item].Plan.HedgeCandidates(key.blockID)
			if e.cfg.Health != nil {
				cands = e.cfg.Health.Healthiest(cands)
			}
			for _, spare := range cands {
				if d.dead[spare] || d.idle[spare] <= 0 || !e.admits(spare) {
					continue
				}
				// Hedges take spare shared capacity opportunistically:
				// TryAcquire leaves no waiting mark, so a refused hedge
				// never reserves capacity against other tenants.
				if f := e.cfg.Fair; f != nil && !f.TryAcquire(spare, e.cfg.Tenant) {
					continue
				}
				if !items[key.item].Plan.Hedge(key.blockID, spare) {
					d.releaseFair(spare)
					continue
				}
				launch(key.item, spare, key.blockID)
				f.dup = true
				reg.Counter("transfer.down.hedges").Inc()
				placed = true
				break
			}
			if !placed {
				reg.Counter("transfer.down.hedge_skipped").Inc()
			}
		}
	}

	// nextHedgeDue returns the earliest unhedged flight's deadline.
	nextHedgeDue := func(deadline time.Duration) (time.Time, bool) {
		var due time.Time
		found := false
		for _, f := range flights {
			if f.done || f.hedged {
				continue
			}
			t := f.start.Add(deadline)
			if !found || t.Before(due) {
				due, found = t, true
			}
		}
		return due, found
	}

	batchStart := e.cfg.Clock.Now()
	var bytesOK int64
	notified := make([]bool, len(items))
	if f := e.cfg.Fair; f != nil {
		defer f.EndBatch(e.cfg.Tenant)
	}
	dispatch()
	for {
		if d.active == 0 {
			if ctx.Err() != nil || !d.fairDenied {
				break
			}
			// Same lost-wakeup-free wait as the upload path: capture
			// the generation, retry, then sleep on it.
			ch := e.cfg.Fair.Changed()
			d.fairDenied = false
			dispatch()
			if d.active > 0 || !d.fairDenied {
				continue
			}
			if !e.awaitFair(ctx, ch) {
				break
			}
			d.fairDenied = false
			dispatch()
			continue
		}
		deadline := hedgeDeadline()
		var hedgeTimer <-chan time.Time
		if due, ok := nextHedgeDue(deadline); ok {
			wait := due.Sub(e.cfg.Clock.Now())
			if wait <= 0 {
				launchHedges(deadline)
				continue
			}
			hedgeTimer = e.cfg.Clock.After(wait)
		}
		var r result
		select {
		case r = <-d.results:
		case <-hedgeTimer:
			launchHedges(deadline)
			continue
		}
		d.release(r.cloudName)
		key := flightKey{r.item, r.blockID}
		f := flights[key]
		f.attempts[r.cloudName]()
		delete(f.attempts, r.cloudName)
		if len(f.attempts) == 0 {
			delete(flights, key)
		}
		if f.done {
			// The block was already completed by the other fetcher;
			// this is the cancelled loser draining. No plan calls, no
			// health verdicts — just the freed slot.
			reg.Counter("transfer.down.hedge_cancelled").Inc()
			if ctx.Err() == nil {
				dispatch()
			}
			continue
		}
		reg.Counter("transfer.down.retries").Add(int64(r.attempts - 1))
		plan := items[r.item].Plan
		if r.err == nil {
			if want := items[r.item].Sums[r.blockID]; want != 0 && meta.BlockSum(r.data) != want {
				// The transport succeeded but the content is wrong: the
				// cloud's copy rotted (or was replaced). Convert it into a
				// block failure so the plan re-fetches from another holder
				// — corrupt bytes must never reach the caller — and feed
				// the breaker: a cloud serving garbage is evidence of
				// unhealth just like a cloud refusing requests. The flight
				// stays open (f.done unset): a hedged twin may still
				// deliver a good copy.
				reg.Counter("transfer.down.corrupt_blocks").Inc()
				if e.cfg.Health != nil {
					e.cfg.Health.ReportCorrupt(r.cloudName)
				}
				plan.NoteCorrupt()
				r.err = fmt.Errorf("transfer: block %s from %s: %w",
					meta.BlockName(items[r.item].SegID, r.blockID), r.cloudName, cloud.ErrCorrupt)
				r.data = nil
			}
		}
		if r.err != nil {
			reg.Counter("transfer.down.blocks_failed").Inc()
			if d.markOutcome(r.cloudName, r.err) {
				reg.Counter("transfer.clouds_marked_dead").Inc()
				markDeadForBatch(r.cloudName)
			}
			plan.Fail(r.cloudName, r.blockID)
			// The failed block is back on some holder's queue; make the
			// item findable there again.
			requeueItem(r.item)
			account(r.item)
			e.prober.ObserveFailure(r.cloudName, sched.Down)
		} else {
			f.done = true
			if f.dup {
				if r.cloudName == f.primary {
					reg.Counter("transfer.down.hedge_losses").Inc()
				} else {
					reg.Counter("transfer.down.hedge_wins").Inc()
				}
			}
			// First response wins: cancel any other attempt still
			// running for this block.
			for _, cancel := range f.attempts {
				cancel()
			}
			reg.Counter("transfer.down.blocks").Inc()
			reg.Counter("transfer.down.bytes").Add(r.size)
			reg.Histogram("transfer.down.block_seconds").ObserveDuration(r.dur)
			bytesOK += r.size
			plan.Complete(r.cloudName, r.blockID)
			blocks[r.item][r.blockID] = r.data
			d.markOutcome(r.cloudName, nil)
			account(r.item)
			// Completion callbacks fire here, on the dispatcher's own
			// goroutine (the DownloadBatch caller), never concurrently —
			// the serialization contract documented on DownloadItem.Done.
			if plan.Done() && !notified[r.item] && items[r.item].Done != nil {
				notified[r.item] = true
				items[r.item].Done(blocks[r.item])
			}
		}
		if ctx.Err() != nil {
			continue
		}
		dispatch()
	}
	if secs := e.cfg.Clock.Now().Sub(batchStart).Seconds(); secs > 0 && bytesOK > 0 {
		reg.Gauge("transfer.down.goodput_bps").Set(float64(bytesOK) / secs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return blocks, nil
}

func (e *Engine) downloadBlock(ctx context.Context, results chan<- result, item int,
	cloudName, segID string, blockID int) {

	c := e.clouds[cloudName]
	path := e.BlockPath(segID, blockID)
	start := e.cfg.Clock.Now()
	attempts := 0
	var data []byte
	err := cloud.Retry(ctx, e.retryPolicy(), func() error {
		attempts++
		var derr error
		data, derr = c.Download(ctx, path)
		return derr
	})
	results <- result{
		item:      item,
		cloudName: cloudName,
		blockID:   blockID,
		data:      data,
		size:      int64(len(data)),
		dur:       e.cfg.Clock.Now().Sub(start),
		attempts:  attempts,
		err:       err,
	}
}

// SurveyBlocks verifies block existence by listing: one List of the
// block directory per cloud, filtered down to the requested segments.
// It returns, for each segment that has any surviving blocks, the
// block locations that actually exist right now — crash recovery uses
// this to resume interrupted uploads without re-uploading present
// blocks, and to find orphans to reclaim.
//
// The survey is conservative by construction: a cloud whose List
// fails (counted under transfer.survey.clouds_failed) simply
// contributes no locations, so its blocks are neither adopted nor
// deleted. A missing block directory is an empty cloud, not a
// failure.
func (e *Engine) SurveyBlocks(ctx context.Context, segIDs []string) map[string][]meta.BlockLocation {
	want := make(map[string]bool, len(segIDs))
	for _, id := range segIDs {
		want[id] = true
	}
	out := make(map[string][]meta.BlockLocation)
	for _, name := range e.names {
		entries, err := e.clouds[name].List(ctx, e.cfg.BlockDir)
		if errors.Is(err, cloud.ErrNotFound) {
			continue
		}
		if err != nil {
			e.cfg.Obs.Counter("transfer.survey.clouds_failed").Inc()
			continue
		}
		for _, en := range entries {
			if en.IsDir {
				continue
			}
			segID, blockID, ok := meta.ParseBlockName(en.Name)
			if !ok || !want[segID] {
				continue
			}
			out[segID] = append(out[segID], meta.BlockLocation{BlockID: blockID, CloudID: name})
		}
	}
	return out
}

// CloudNames returns the engine's cloud names, sorted.
func (e *Engine) CloudNames() []string {
	return append([]string(nil), e.names...)
}

// ListBlockNames lists the block directory of one cloud and returns
// the raw block file names. A missing directory is an empty cloud,
// not an error; any other List failure is returned so callers (the
// scrubber, Fsck) can treat the cloud's contents as unknown instead
// of empty.
func (e *Engine) ListBlockNames(ctx context.Context, cloudName string) ([]string, error) {
	c, ok := e.clouds[cloudName]
	if !ok {
		return nil, fmt.Errorf("transfer: unknown cloud %q", cloudName)
	}
	entries, err := c.List(ctx, e.cfg.BlockDir)
	if errors.Is(err, cloud.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, en := range entries {
		if !en.IsDir {
			names = append(names, en.Name)
		}
	}
	return names, nil
}

// FetchBlock downloads one coded block from one specific cloud, with
// the engine's transient-retry policy. Unlike the plan-driven batch
// paths it does no verification and no failover — the scrubber uses
// it to examine exactly the copy a cloud holds.
func (e *Engine) FetchBlock(ctx context.Context, cloudName, segID string, blockID int) ([]byte, error) {
	c, ok := e.clouds[cloudName]
	if !ok {
		return nil, fmt.Errorf("transfer: unknown cloud %q", cloudName)
	}
	var data []byte
	err := cloud.Retry(ctx, e.retryPolicy(), func() error {
		var derr error
		data, derr = c.Download(ctx, e.BlockPath(segID, blockID))
		return derr
	})
	return data, err
}

// PutBlock uploads one coded block to one specific cloud, with the
// engine's transient-retry policy — the scrubber's repair write path.
func (e *Engine) PutBlock(ctx context.Context, cloudName, segID string, blockID int, data []byte) error {
	c, ok := e.clouds[cloudName]
	if !ok {
		return fmt.Errorf("transfer: unknown cloud %q", cloudName)
	}
	return cloud.Retry(ctx, e.retryPolicy(), func() error {
		return c.Upload(ctx, e.BlockPath(segID, blockID), data)
	})
}

// BlockRef names one stored coded block: a block of a segment on a
// cloud.
type BlockRef struct {
	SegID   string
	BlockID int
	Cloud   string
}

// DeleteBlocks removes the given blocks from their clouds and reports
// the number of successful deletions. Every cloud's deletes run
// concurrently, through the same connection-slot accounting as block
// transfers: at most ConnsPerCloud in flight per cloud, each holding a
// shared-scheduler slot when one is configured — a delete is one Web
// API latency, so a pass that drops a large file's segments would
// otherwise wait for them one after another. Individual failures are
// ignored (orphaned blocks are garbage-collected by later passes) and a
// delete is tried once. Once ctx is done no further request is
// launched; the blocks not tried are counted under
// transfer.delete.skipped.
func (e *Engine) DeleteBlocks(ctx context.Context, blocks []BlockRef) int {
	reg := e.cfg.Obs
	queues := make(map[string][]BlockRef, len(e.names))
	queued := 0
	for _, b := range blocks {
		if _, ok := e.clouds[b.Cloud]; !ok {
			reg.Counter("transfer.delete.unknown_cloud").Inc()
			continue
		}
		queues[b.Cloud] = append(queues[b.Cloud], b)
		queued++
	}
	d := e.newDispatcher()
	dispatch := func() {
		for _, name := range e.names {
			q := queues[name]
			for len(q) > 0 && d.idle[name] > 0 && d.acquireFair(name) {
				b := q[0]
				q = q[1:]
				queued--
				d.take(name)
				go func() {
					err := e.clouds[name].Delete(ctx, e.BlockPath(b.SegID, b.BlockID))
					d.results <- result{cloudName: name, err: err}
				}()
			}
			queues[name] = q
		}
	}

	if f := e.cfg.Fair; f != nil {
		defer f.EndBatch(e.cfg.Tenant)
	}
	deleted := 0
	for {
		var changed <-chan struct{}
		if ctx.Err() == nil {
			// Captured before the Acquire attempts, so a slot freed between
			// a refusal and the wait below still wakes it.
			if f := e.cfg.Fair; f != nil {
				changed = f.Changed()
			}
			d.fairDenied = false
			dispatch()
		}
		if d.active == 0 {
			// Done, cancelled, or every slot belongs to other tenants.
			if ctx.Err() == nil && d.fairDenied && e.awaitFair(ctx, changed) {
				continue
			}
			break
		}
		r := <-d.results
		d.release(r.cloudName)
		if r.err == nil {
			deleted++
			reg.Counter("transfer.delete.blocks").Inc()
		} else {
			reg.Counter("transfer.delete.blocks_failed").Inc()
		}
	}
	reg.Counter("transfer.delete.skipped").Add(int64(queued))
	return deleted
}
