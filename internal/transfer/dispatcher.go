package transfer

import (
	"context"
	"errors"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/sched"
)

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

// dispatcher is the part of a batch that is the same whatever moves:
// the per-cloud connection slots (local and shared), the per-cloud
// queues of items that may still have work there, which clouds the
// batch has written off and why, and the loop that dispatches until
// nothing is left or in flight. Upload, download and batch delete
// plug their dispatch and result handling into run.
type dispatcher struct {
	e      *Engine
	items  int
	idle   map[string]int
	streak map[string]int
	// excluded holds the clouds this batch has written off, and why:
	// Dead for failed transfers or an open breaker, Full (upload
	// batches only) for exhausted quota. Either way the batch hands
	// the cloud nothing more; a Full cloud goes on serving every other
	// batch's reads.
	excluded map[string]sched.Reason
	// pending[cloud] queues the indices of items that may still have
	// blocks for that cloud. Dispatch serves the front entry and pops
	// entries whose plan ran dry for the cloud; anything that re-routes
	// blocks (a failed block, an exclusion) re-appends the affected
	// items. Duplicates are harmless — an exhausted entry just pops.
	// This keeps finding the next block O(1) amortized instead of
	// rescanning the whole batch per landed block, which is the
	// difference between O(blocks) and O(blocks × items) for a
	// 50k-segment commit.
	pending map[string][]int
	active  int
	results chan result
	// fairDenied records that the last dispatch pass was refused a
	// slot by the shared scheduler; with nothing in flight run then
	// blocks on FairScheduler.Changed instead of spinning (or, worse,
	// returning with work left).
	fairDenied bool
	// replan tells the batch's plans that a cloud is excluded and
	// reports whether blocks moved onto other clouds' queues.
	replan func(cloudName string, reason sched.Reason) bool
	// wake, when set, is asked before every wait for a result while
	// the context is live: it returns when to dispatch again with
	// nothing landed (a running fetch qualifying for a duplicate), nil
	// for never.
	wake func() <-chan time.Time
	// unmarked batches (deletes) claim shared slots without leaving a
	// waiting mark, and so have none to clear when they end: a tenant's
	// batch delete may run beside its upload batch, whose marks it must
	// not clear (FairScheduler.EndBatch clears every mark of a tenant).
	unmarked bool
}

// newDispatcher returns a dispatcher for a batch of the given number
// of items, every connection idle and every queue empty.
func (e *Engine) newDispatcher(items int) *dispatcher {
	d := &dispatcher{
		e:        e,
		items:    items,
		idle:     make(map[string]int, len(e.names)),
		streak:   make(map[string]int, len(e.names)),
		excluded: make(map[string]sched.Reason, len(e.names)),
		pending:  make(map[string][]int, len(e.names)),
		results:  make(chan result),
	}
	for _, n := range e.names {
		d.idle[n] = e.cfg.ConnsPerCloud
	}
	return d
}

// requeue makes the item findable again on every cloud the batch has
// not written off — after one of its blocks failed, or landed and may
// have unlocked work the plan refused earlier.
func (d *dispatcher) requeue(item int) {
	for _, name := range d.e.names {
		if d.excluded[name] == 0 {
			d.pending[name] = append(d.pending[name], item)
		}
	}
}

// requeueAll is requeue for every item, in batch order: the state of a
// new batch, and of one whose blocks an exclusion just re-planned.
func (d *dispatcher) requeueAll() {
	for i := 0; i < d.items; i++ {
		d.requeue(i)
	}
}

// exclude writes the cloud off for this batch — the one exclusion
// path, whether a transfer failed, the breaker is open or the quota
// ran out — and lets the plans route its blocks elsewhere.
func (d *dispatcher) exclude(cloudName string, reason sched.Reason) {
	if d.excluded[cloudName]&(reason|sched.Dead) != 0 {
		return
	}
	d.excluded[cloudName] |= reason
	if reason == sched.Full {
		d.e.cfg.Obs.Counter("transfer.clouds_marked_full").Inc()
	}
	if d.replan(cloudName, reason) {
		d.requeueAll()
	}
}

// markOutcome updates failure streaks; it returns true when the cloud
// should be excluded from the batch. A circuit-breaker rejection means
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
	return d.streak[cloudName] >= deadAfter
}

// take claims an idle connection slot on cloudName and publishes the
// new occupancy.
func (d *dispatcher) take(cloudName string) {
	d.idle[cloudName]--
	d.active++
	d.publish(cloudName)
}

// release returns a connection slot (local and shared) and publishes
// the new occupancy. Every in-flight transfer holds exactly one
// shared-scheduler slot, claimed by dispatch before launch.
func (d *dispatcher) release(cloudName string) {
	d.idle[cloudName]++
	d.active--
	d.releaseFair(cloudName)
	d.publish(cloudName)
}

func (d *dispatcher) publish(cloudName string) {
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
	acquire := f.Acquire
	if d.unmarked {
		acquire = f.TryAcquire
	}
	if acquire(cloudName, d.e.cfg.Tenant) {
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

// run is the batch loop: dispatch, then hand every finished transfer
// to handle and dispatch again, until nothing is in flight and nothing
// was refused a slot. Once ctx is done nothing more is dispatched;
// what is in flight is drained. handle runs on the calling goroutine,
// one result at a time.
func (d *dispatcher) run(ctx context.Context, dispatch func(), handle func(result)) {
	fair := d.e.cfg.Fair
	if fair != nil && !d.unmarked {
		defer fair.EndBatch(d.e.cfg.Tenant)
	}
	redispatch := func() {
		if ctx.Err() == nil {
			d.fairDenied = false
			dispatch()
		}
	}
	redispatch()
	for {
		if d.active == 0 {
			if !d.fairDenied || ctx.Err() != nil {
				return
			}
			// Work remains but every slot belongs to other tenants.
			// Capture the change generation, retry once (a slot may have
			// freed since the refusal), then sleep on it: a change between
			// the capture and the sleep still closes the captured channel,
			// so the wakeup cannot be lost.
			changed := fair.Changed()
			redispatch()
			if d.active == 0 && d.fairDenied {
				d.e.cfg.Obs.Counter("transfer.fair.waits").Inc()
				select {
				case <-changed:
				case <-ctx.Done():
					return
				}
			}
			continue
		}
		var wake <-chan time.Time
		if d.wake != nil && ctx.Err() == nil {
			wake = d.wake()
		}
		select {
		case r := <-d.results:
			d.release(r.cloudName)
			handle(r)
			redispatch()
		case <-wake:
			redispatch()
		}
	}
}
