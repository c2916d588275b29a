// Package transfer is UniDrive's data-plane engine: it executes
// upload and download plans over the clouds with multiple concurrent
// connections per cloud, schedules them on the in-channel prober's
// estimates (fed by the cloud chain around each cloud), retries
// transient Web API failures, and excludes clouds that stop
// responding or run out of quota.
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
	"fmt"
	"sort"

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

// deadAfter is the number of consecutive failed block transfers after
// which a cloud is excluded from the current plan.
const deadAfter = 3

// Config parametrizes an Engine.
type Config struct {
	// ConnsPerCloud is the maximum concurrent transfers per cloud.
	ConnsPerCloud int
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
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
}

// Engine executes plans over a fixed set of clouds. Safe for
// concurrent use by independent plan runs.
type Engine struct {
	clouds map[string]cloud.Interface
	names  []string
	prober *sched.Prober
	cfg    Config
	// elig is the per-cloud eligibility view over cfg.Health and
	// cfg.Capacity; dispatch asks it, never the trackers.
	elig Eligibility
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
	return &Engine{clouds: m, names: names, prober: prober, cfg: cfg,
		elig: Eligibility{Health: cfg.Health, Capacity: cfg.Capacity}}
}

// Prober returns the engine's prober.
func (e *Engine) Prober() *sched.Prober { return e.prober }

// BlockPath returns the cloud path of one coded block.
func (e *Engine) BlockPath(segID string, blockID int) string {
	return cloud.JoinPath(DefaultBlockDir, meta.BlockName(segID, blockID))
}

// retryPolicy is the per-block retry policy, its backoff waiting on
// the engine's clock: a duplicate winner's cancellation interrupts a loser
// stuck mid-backoff.
func (e *Engine) retryPolicy() cloud.RetryPolicy {
	return cloud.DefaultRetryPolicy(e.cfg.Clock.After)
}

// CloudNames returns the engine's cloud names, sorted.
func (e *Engine) CloudNames() []string {
	return append([]string(nil), e.names...)
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
// otherwise wait for them one after another. A refused slot leaves no
// waiting mark (FairScheduler.TryAcquire): the deletes may run beside
// the same tenant's next upload batch, and ending them clears none of
// its marks. Individual failures are
// ignored (orphaned blocks are garbage-collected by later passes) and a
// delete is tried once. Once ctx is done no further request is
// launched; the blocks not tried are counted under
// transfer.delete.skipped.
func (e *Engine) DeleteBlocks(ctx context.Context, blocks []BlockRef) int {
	reg := e.cfg.Obs
	d := e.newDispatcher(len(blocks))
	d.unmarked = true
	for i, b := range blocks {
		if _, ok := e.clouds[b.Cloud]; !ok {
			reg.Counter("transfer.delete.unknown_cloud").Inc()
			continue
		}
		d.pending[b.Cloud] = append(d.pending[b.Cloud], i)
	}
	dispatch := func() {
		for _, name := range e.names {
			for len(d.pending[name]) > 0 && d.idle[name] > 0 && d.acquireFair(name) {
				b := blocks[d.pending[name][0]]
				d.pending[name] = d.pending[name][1:]
				d.take(name)
				go func() {
					err := e.clouds[name].Delete(ctx, e.BlockPath(b.SegID, b.BlockID))
					d.results <- result{cloudName: name, err: err}
				}()
			}
		}
	}
	deleted := 0
	d.run(ctx, dispatch, func(r result) {
		if r.err == nil {
			deleted++
			reg.Counter("transfer.delete.blocks").Inc()
		} else {
			reg.Counter("transfer.delete.blocks_failed").Inc()
		}
	})
	skipped := 0
	for _, q := range d.pending {
		skipped += len(q)
	}
	reg.Counter("transfer.delete.skipped").Add(int64(skipped))
	return deleted
}
