package transfer

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/meta"
	"unidrive/internal/sched"
)

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

// flightKey names one block of one item being fetched.
type flightKey struct{ item, blockID int }

// flight tracks one (item, block) currently being fetched — possibly
// by two clouds at once when hedged. Each attempt gets its own
// cancelable context so first-response-wins can cancel the loser.
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

// downloadBatch is one DownloadBatch call's state.
type downloadBatch struct {
	*dispatcher
	ctx     context.Context
	items   []DownloadItem
	blocks  []map[int][]byte
	flights map[flightKey]*flight
	// unassigned is the payload the batch has not handed out yet: each
	// plan's K minus its fetched and in-flight blocks (rem), at the
	// item's block size. account(i) re-reads item i's plan after
	// anything that moved it.
	rem        []int
	unassigned int64
	// rankBytes, the transfer size clouds are ranked for, is the
	// batch's largest block.
	rankBytes int64
	bytesOK   int64
	notified  []bool
	// others is admits' scratch list, reused across calls.
	others []string
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
	b := &downloadBatch{
		dispatcher: e.newDispatcher(len(items)),
		ctx:        ctx,
		items:      items,
		blocks:     make([]map[int][]byte, len(items)),
		flights:    make(map[flightKey]*flight),
		rem:        make([]int, len(items)),
		notified:   make([]bool, len(items)),
	}
	b.replan, b.wake = b.markDead, b.hedgeTimer
	for i, it := range items {
		b.blocks[i] = make(map[int][]byte)
		b.account(i)
		if it.Size > b.rankBytes {
			b.rankBytes = it.Size
		}
	}
	b.requeueAll()
	start := e.cfg.Clock.Now()
	b.run(ctx, b.dispatch, b.handle)
	if secs := e.cfg.Clock.Now().Sub(start).Seconds(); secs > 0 && b.bytesOK > 0 {
		e.cfg.Obs.Gauge("transfer.down.goodput_bps").Set(float64(b.bytesOK) / secs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.blocks, nil
}

func (b *downloadBatch) account(i int) {
	n := b.items[i].Plan.Unassigned()
	b.unassigned += int64(n-b.rem[i]) * b.items[i].Size
	b.rem[i] = n
}

// markDead tells every plan in the batch that the cloud is gone; they
// re-route its blocks onto the other holders' queues.
func (b *downloadBatch) markDead(cloudName string, _ sched.Reason) bool {
	for _, it := range b.items {
		it.Plan.MarkDead(cloudName)
	}
	return true
}

// launch starts one fetch of the block from the cloud, as a new flight
// or as the hedge of a running one.
func (b *downloadBatch) launch(item int, name string, blockID int) {
	actx, cancel := context.WithCancel(b.ctx)
	key := flightKey{item, blockID}
	f := b.flights[key]
	if f == nil {
		f = &flight{start: b.e.cfg.Clock.Now(), primary: name,
			attempts: make(map[string]context.CancelFunc, 2)}
		b.flights[key] = f
	}
	f.attempts[name] = cancel
	b.take(name)
	go b.e.downloadBlock(actx, b.results, item, name, b.items[item].SegID, blockID)
}

func (b *downloadBatch) dispatch() {
	e := b.e
	// Breakers first, so that every walk below sees the same live set.
	live := make([]string, 0, len(e.names))
	for _, name := range e.prober.Rank(e.names, sched.Down, b.rankBytes) {
		switch {
		case b.excluded[name] != 0:
		case !e.elig.ServesReads(name):
			// Open breaker: treat like an outage for this batch so the
			// plans reroute its blocks to other holders.
			e.cfg.Obs.Counter("transfer.down.breaker_routed").Inc()
			b.exclude(name, sched.Dead)
		default:
			live = append(live, name)
		}
	}
	for _, name := range live {
		b.fill(name, live)
	}
}

// fill walks the cloud's queue in place, launching what the admission
// rule lets it fetch: entries the plan has nothing for are spent and
// dropped; entries the rule refuses stay (the bar moves with every
// block handed out), and the walk goes on behind them — a later
// segment may need this cloud for its K-th block.
func (b *downloadBatch) fill(name string, live []string) {
	q := b.pending[name]
	kept := q[:0]
	pos := 0
	for pos < len(q) && b.idle[name] > 0 {
		i := q[pos]
		plan := b.items[i].Plan
		if !plan.HasWork(name) {
			pos++
			continue
		}
		if !b.admits(i, name, live) {
			kept = append(kept, i)
			pos++
			continue
		}
		// The shared slot is claimed BEFORE NextBlock, as in the upload
		// path.
		if !b.acquireFair(name) {
			break
		}
		blockID, ok := plan.NextBlock(name)
		if !ok {
			b.releaseFair(name)
			pos++
			continue
		}
		// The entry stays at the front: the plan may hold another block
		// for this cloud.
		b.launch(i, name, blockID)
		b.account(i)
	}
	b.pending[name] = append(kept, q[pos:]...)
}

// admits applies the download admission rule to item i on the cloud,
// against the live holders that could take the block instead.
func (b *downloadBatch) admits(i int, name string, live []string) bool {
	plan := b.items[i].Plan
	others := b.others[:0]
	for _, o := range live {
		if o != name && plan.HasWork(o) {
			others = append(others, o)
		}
	}
	b.others = others
	return sched.AdmitDownload(b.e.prober, plan, name, others,
		b.e.cfg.ConnsPerCloud, b.items[i].Size, b.unassigned)
}

// hedgeQuantile is the latency quantile of the observed download block
// histogram past which an in-flight download counts as a straggler and
// earns a duplicate (hedged) request on a spare cloud.
const hedgeQuantile = 0.95

// hedgeDeadline is the straggler threshold: the hedgeQuantile of
// observed block latencies, falling back to a fixed delay until the
// histogram is populated (Aktaş et al.: duplicate the slow reads, take
// the fastest responses).
func (b *downloadBatch) hedgeDeadline() time.Duration {
	cfg := &b.e.cfg
	if cfg.Obs != nil {
		h := cfg.Obs.Histogram("transfer.down.block_seconds")
		if h.Count() >= int64(cfg.HedgeMinSamples) {
			if q := h.Quantile(hedgeQuantile); q > 0 {
				return time.Duration(q * float64(time.Second))
			}
		}
	}
	return cfg.HedgeFallbackDelay
}

// hedgeTimer is the batch's wake hook: it hedges every flight already
// past the deadline and returns a timer for the earliest one that is
// not, nil when every flight is hedged.
func (b *downloadBatch) hedgeTimer() <-chan time.Time {
	deadline := b.hedgeDeadline()
	now := b.e.cfg.Clock.Now()
	var due time.Time
	for key, f := range b.flights {
		switch t := f.start.Add(deadline); {
		case f.done || f.hedged:
		case !now.Before(t):
			b.hedge(key, f)
		case due.IsZero() || t.Before(due):
			due = t
		}
	}
	if due.IsZero() {
		return nil
	}
	return b.e.cfg.Clock.After(due.Sub(now))
}

// hedge issues one duplicate request for a straggling flight, on the
// healthiest spare cloud that holds the block and has an idle
// connection. A flight is hedged at most once.
func (b *downloadBatch) hedge(key flightKey, f *flight) {
	f.hedged = true
	e, plan := b.e, b.items[key.item].Plan
	for _, spare := range e.elig.ReadSources(plan.HedgeCandidates(key.blockID)) {
		if b.excluded[spare] != 0 || b.idle[spare] <= 0 {
			continue
		}
		// Hedges take spare shared capacity opportunistically:
		// TryAcquire leaves no waiting mark, so a refused hedge never
		// reserves capacity against other tenants.
		if fair := e.cfg.Fair; fair != nil && !fair.TryAcquire(spare, e.cfg.Tenant) {
			continue
		}
		if !plan.Hedge(key.blockID, spare) {
			b.releaseFair(spare)
			continue
		}
		b.launch(key.item, spare, key.blockID)
		f.dup = true
		e.cfg.Obs.Counter("transfer.down.hedges").Inc()
		return
	}
	e.cfg.Obs.Counter("transfer.down.hedge_skipped").Inc()
}

func (b *downloadBatch) handle(r result) {
	reg := b.e.cfg.Obs
	key := flightKey{r.item, r.blockID}
	f := b.flights[key]
	f.attempts[r.cloudName]()
	delete(f.attempts, r.cloudName)
	if len(f.attempts) == 0 {
		delete(b.flights, key)
	}
	if f.done {
		// The block was already completed by the other fetcher; this is
		// the cancelled loser draining. No plan calls, no health verdicts
		// — just the freed slot.
		reg.Counter("transfer.down.hedge_cancelled").Inc()
		return
	}
	reg.Counter("transfer.down.retries").Add(int64(r.attempts - 1))
	if r.err == nil {
		r.err = b.verify(r)
	}
	if r.err != nil {
		b.failed(r)
	} else {
		b.landed(r, f)
	}
	b.account(r.item)
}

// verify checks a fetched block against its expected checksum. The
// transport succeeded but the content may be wrong: the cloud's copy
// rotted (or was replaced). That becomes a block failure so the plan
// re-fetches from another holder — corrupt bytes must never reach the
// caller — and feeds the breaker: a cloud serving garbage is evidence
// of unhealth just like a cloud refusing requests. The flight stays
// open (f.done unset): a hedged twin may still deliver a good copy.
func (b *downloadBatch) verify(r result) error {
	it := b.items[r.item]
	if want := it.Sums[r.blockID]; want == 0 || meta.BlockSum(r.data) == want {
		return nil
	}
	b.e.cfg.Obs.Counter("transfer.down.corrupt_blocks").Inc()
	if h := b.e.cfg.Health; h != nil {
		h.ReportCorrupt(r.cloudName)
	}
	it.Plan.NoteCorrupt()
	return fmt.Errorf("transfer: block %s from %s: %w",
		meta.BlockName(it.SegID, r.blockID), r.cloudName, cloud.ErrCorrupt)
}

func (b *downloadBatch) failed(r result) {
	reg := b.e.cfg.Obs
	reg.Counter("transfer.down.blocks_failed").Inc()
	if b.markOutcome(r.cloudName, r.err) {
		reg.Counter("transfer.clouds_marked_dead").Inc()
		b.exclude(r.cloudName, sched.Dead)
	}
	b.items[r.item].Plan.Fail(r.cloudName, r.blockID)
	// The failed block is back on some holder's queue; make the item
	// findable there again.
	b.requeue(r.item)
	b.e.prober.ObserveFailure(r.cloudName, sched.Down)
}

func (b *downloadBatch) landed(r result, f *flight) {
	reg := b.e.cfg.Obs
	f.done = true
	if f.dup {
		if r.cloudName == f.primary {
			reg.Counter("transfer.down.hedge_losses").Inc()
		} else {
			reg.Counter("transfer.down.hedge_wins").Inc()
		}
	}
	// First response wins: cancel any other attempt still running for
	// this block.
	for _, cancel := range f.attempts {
		cancel()
	}
	reg.Counter("transfer.down.blocks").Inc()
	reg.Counter("transfer.down.bytes").Add(r.size)
	reg.Histogram("transfer.down.block_seconds").ObserveDuration(r.dur)
	b.bytesOK += r.size
	it := b.items[r.item]
	it.Plan.Complete(r.cloudName, r.blockID)
	b.blocks[r.item][r.blockID] = r.data
	b.markOutcome(r.cloudName, nil)
	// Completion callbacks fire here, on the dispatcher's own goroutine
	// (the DownloadBatch caller), never concurrently — the
	// serialization contract documented on DownloadItem.Done.
	if it.Plan.Done() && !b.notified[r.item] && it.Done != nil {
		b.notified[r.item] = true
		it.Done(b.blocks[r.item])
	}
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
