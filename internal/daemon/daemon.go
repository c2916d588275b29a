// Package daemon hosts many UniDrive tenants in one process.
//
// A tenant is one (user, sync folder) pair: it owns its cloud
// accounts, its metadata image, its intent journal, and its folder
// watcher — exactly the state a standalone core.Client owns. What
// tenants must NOT own independently is the machine's egress: if
// every tenant kept its private per-cloud connection budget, a
// process with T tenants would open T×conns connections to each
// cloud and the per-cloud budget (paper §6.2 uses 5) would be
// meaningless. The daemon therefore threads one shared
// transfer.FairScheduler through every tenant's engine, so the
// process-wide budget is enforced once and divided by weighted
// max-min fairness: a backlogged tenant can use idle capacity, but
// the moment another tenant wakes up it reaches its fair share
// within a bounded number of block completions (see transfer.FairScheduler).
//
// Everything else stays per-tenant and isolated:
//
//   - metadata: each tenant syncs its own folder against its own
//     cloud accounts; nothing of one tenant's image, journal, or
//     lock state is visible to another;
//   - health: each tenant has its own breaker tracker, because
//     breaker state is evidence about a (tenant account, cloud)
//     pair — tenant A's dead account on a cloud says nothing about
//     tenant B's, so an open breaker must never reject another
//     tenant's calls;
//   - capacity: each tenant has its own quota-exhaustion tracker for
//     the same reason — quota is a property of the tenant's own
//     account on a cloud, so tenant A running its free tier dry must
//     not stop tenant B's uploads to the same provider;
//   - telemetry: each tenant records into its own obs.Registry; the
//     daemon rolls the per-tenant series into fleet aggregates with
//     obs.MergeSnapshots on demand, served at /debug/unidrive.
package daemon

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/core"
	"unidrive/internal/health"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
	"unidrive/internal/scrub"
	"unidrive/internal/transfer"
	"unidrive/internal/vclock"
)

// Config parametrizes the daemon process.
type Config struct {
	// ConnsPerCloud is the PROCESS-wide concurrent-transfer budget per
	// cloud, shared by all tenants through the fair scheduler.
	// Defaults to transfer.DefaultConnsPerCloud.
	ConnsPerCloud int
	// Clock paces every tenant's waiting; defaults to real time.
	Clock vclock.Clock
	// Obs, when non-nil, receives daemon-level telemetry: the fair
	// scheduler's grant/deny counters. Per-tenant traffic lands in the
	// per-tenant registries, not here; FleetSnapshot merges both.
	Obs *obs.Registry
	// HealthSeed seeds the per-tenant breaker trackers (jittered
	// cooldowns); tenant IDs are folded in so trackers don't share
	// jitter streams.
	HealthSeed int64
	// ScrubInterval, when positive, schedules a per-tenant anti-entropy
	// scrub cycle (core.Client.Scrub) at this period while the daemon
	// runs. Zero disables background scrubbing.
	ScrubInterval time.Duration
	// ScrubRepair enables the repair pass of scheduled scrub cycles;
	// false leaves them verify-and-report only.
	ScrubRepair bool
}

func (c *Config) fillDefaults() {
	if c.ConnsPerCloud <= 0 {
		c.ConnsPerCloud = transfer.DefaultConnsPerCloud
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
}

// TenantConfig describes one tenant to AddTenant.
type TenantConfig struct {
	// ID names the tenant uniquely within the daemon; it is the
	// tenant's identity to the fair scheduler and the debug endpoint.
	ID string
	// Weight is the tenant's share of the per-cloud connection budget
	// relative to other tenants (default 1).
	Weight float64
	// Clouds are the tenant's own cloud accounts. Tenants must not
	// share live connectors: a connector wraps one account's
	// credentials and quota.
	Clouds []cloud.Interface
	// Folder is the tenant's local sync folder.
	Folder localfs.Folder
	// Core carries the tenant's client parameters (Device, Passphrase,
	// coding params, intervals...). The daemon owns and overrides the
	// cross-cutting fields: Obs and Health are replaced by per-tenant
	// instances, Fair/TenantID by the shared scheduler and ID, Clock
	// and ConnsPerCloud by the daemon's (when unset).
	Core core.Config
}

// Tenant is one hosted (user, folder) pair.
type Tenant struct {
	id       string
	weight   float64
	names    []string // the tenant's cloud names, sorted
	client   *core.Client
	reg      *obs.Registry
	health   *health.Tracker
	capacity *capacity.Tracker

	// loop state, guarded by the daemon's mu.
	cancel context.CancelFunc
	done   chan struct{}
}

// ID returns the tenant's daemon-unique identity.
func (t *Tenant) ID() string { return t.id }

// Client returns the tenant's UniDrive client.
func (t *Tenant) Client() *core.Client { return t.client }

// Obs returns the tenant's private metrics registry.
func (t *Tenant) Obs() *obs.Registry { return t.reg }

// Health returns the tenant's private breaker tracker.
func (t *Tenant) Health() *health.Tracker { return t.health }

// Capacity returns the tenant's private quota-exhaustion tracker.
func (t *Tenant) Capacity() *capacity.Tracker { return t.capacity }

// CloudNames returns the tenant's cloud names, sorted.
func (t *Tenant) CloudNames() []string { return append([]string(nil), t.names...) }

// Daemon hosts the tenants. All methods are safe for concurrent use.
type Daemon struct {
	cfg  Config
	fair *transfer.FairScheduler

	mu      sync.Mutex
	tenants map[string]*Tenant
	running bool
	runCtx  context.Context
	onError func(tenantID string, err error)
	wg      sync.WaitGroup
}

// New creates an empty daemon.
func New(cfg Config) *Daemon {
	cfg.fillDefaults()
	return &Daemon{
		cfg:     cfg,
		fair:    transfer.NewFairScheduler(cfg.ConnsPerCloud, cfg.Obs),
		tenants: make(map[string]*Tenant),
	}
}

// Fair exposes the shared connection scheduler (debug/test
// introspection).
func (d *Daemon) Fair() *transfer.FairScheduler { return d.fair }

// AddTenant builds the tenant's full client stack — private registry,
// private breaker tracker, core.Client bound to the shared fair
// scheduler — and registers it. If the daemon is running, the
// tenant's sync loop starts immediately.
func (d *Daemon) AddTenant(tc TenantConfig) (*Tenant, error) {
	if tc.ID == "" {
		return nil, fmt.Errorf("daemon: empty tenant ID")
	}
	reg := obs.NewRegistry()
	tracker := health.NewDefaultTracker(d.cfg.Clock, d.tenantSeed(tc.ID), reg)
	capTracker := capacity.NewDefaultTracker(d.cfg.Clock, reg)
	cc := tc.Core
	cc.Obs = reg
	cc.Health = tracker
	cc.Capacity = capTracker
	cc.Fair = d.fair
	cc.TenantID = tc.ID
	if cc.Clock == nil {
		cc.Clock = d.cfg.Clock
	}
	// The engine's local per-cloud limit must not under-cut the shared
	// budget: the fair scheduler is the authority on how many slots
	// this tenant may use at once, including over-share grants of idle
	// capacity up to the whole budget.
	cc.ConnsPerCloud = d.fair.Conns()
	if cc.Device == "" {
		cc.Device = tc.ID
	}
	client, err := core.New(tc.Clouds, tc.Folder, cc)
	if err != nil {
		return nil, fmt.Errorf("daemon: tenant %s: %w", tc.ID, err)
	}
	names := make([]string, len(tc.Clouds))
	for i, c := range tc.Clouds {
		names[i] = c.Name()
	}
	sort.Strings(names)
	t := &Tenant{
		id:       tc.ID,
		weight:   tc.Weight,
		names:    names,
		client:   client,
		reg:      reg,
		health:   tracker,
		capacity: capTracker,
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tenants[tc.ID]; dup {
		return nil, fmt.Errorf("daemon: duplicate tenant ID %q", tc.ID)
	}
	d.tenants[tc.ID] = t
	if tc.Weight > 0 {
		d.fair.SetWeight(tc.ID, tc.Weight)
	}
	if d.running {
		d.startLoopLocked(t)
	}
	return t, nil
}

// tenantSeed folds the tenant ID into the daemon's health seed so
// per-tenant trackers draw independent jitter.
func (d *Daemon) tenantSeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return d.cfg.HealthSeed ^ int64(h.Sum64())
}

// RemoveTenant stops the tenant's loop (waiting for it to exit),
// clears its scheduler state, and deregisters it. Removing an unknown
// tenant is a no-op.
func (d *Daemon) RemoveTenant(id string) {
	d.mu.Lock()
	t, ok := d.tenants[id]
	if ok {
		delete(d.tenants, id)
	}
	d.mu.Unlock()
	if !ok {
		return
	}
	if t.cancel != nil {
		t.cancel()
		<-t.done
	}
	d.fair.SetWeight(id, 0)
	d.fair.EndBatch(id)
}

// Tenant looks a tenant up by ID.
func (d *Daemon) Tenant(id string) (*Tenant, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[id]
	return t, ok
}

// Tenants returns the current tenants sorted by ID.
func (d *Daemon) Tenants() []*Tenant {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Tenant, 0, len(d.tenants))
	for _, t := range d.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// SyncTenant runs one synchronous sync pass for the tenant.
func (d *Daemon) SyncTenant(ctx context.Context, id string) (core.SyncReport, error) {
	t, ok := d.Tenant(id)
	if !ok {
		return core.SyncReport{}, fmt.Errorf("daemon: unknown tenant %q", id)
	}
	return t.client.SyncOnce(ctx)
}

// SyncAll runs one sync pass for every tenant concurrently — this is
// where the fair scheduler earns its keep — and returns per-tenant
// reports plus the first error of each failing tenant.
func (d *Daemon) SyncAll(ctx context.Context) (map[string]core.SyncReport, map[string]error) {
	tenants := d.Tenants()
	reports := make(map[string]core.SyncReport, len(tenants))
	errs := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range tenants {
		wg.Add(1)
		go func(t *Tenant) {
			defer wg.Done()
			rep, err := t.client.SyncOnce(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[t.id] = err
				return
			}
			reports[t.id] = rep
		}(t)
	}
	wg.Wait()
	if len(errs) == 0 {
		errs = nil
	}
	return reports, errs
}

// Run starts every tenant's sync loop and blocks until ctx is
// cancelled and all loops have drained. Tenants added while running
// are started immediately; onError (which may be nil) receives
// per-tenant loop errors tagged with the tenant ID.
func (d *Daemon) Run(ctx context.Context, onError func(tenantID string, err error)) {
	d.mu.Lock()
	d.running = true
	d.runCtx = ctx
	d.onError = onError
	for _, t := range d.tenants {
		d.startLoopLocked(t)
	}
	d.mu.Unlock()

	<-ctx.Done()
	d.wg.Wait()
	d.mu.Lock()
	d.running = false
	d.runCtx = nil
	d.mu.Unlock()
}

func (d *Daemon) startLoopLocked(t *Tenant) {
	if t.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(d.runCtx)
	t.cancel = cancel
	t.done = make(chan struct{})
	onError := d.onError
	id := t.id
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer close(t.done)
		t.client.RunLoop(ctx, func(err error) {
			if onError != nil {
				onError(id, err)
			}
		})
	}()
	if d.cfg.ScrubInterval > 0 {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case <-d.cfg.Clock.After(d.cfg.ScrubInterval):
				}
				if _, err := t.client.Scrub(ctx, d.cfg.ScrubRepair); err != nil && ctx.Err() == nil {
					if onError != nil {
						onError(id, err)
					}
				}
			}
		}()
	}
}

// ScrubTenant runs one synchronous scrub cycle for the tenant.
func (d *Daemon) ScrubTenant(ctx context.Context, id string, repair bool) (*scrub.Report, error) {
	t, ok := d.Tenant(id)
	if !ok {
		return nil, fmt.Errorf("daemon: unknown tenant %q", id)
	}
	return t.client.Scrub(ctx, repair)
}

// FleetSnapshot merges the daemon registry and every tenant registry
// into one fleet-wide aggregate: counters and byte totals sum,
// latency percentiles come from exact bucket merges (see
// obs.MergeSnapshots).
func (d *Daemon) FleetSnapshot() obs.Snapshot {
	snaps := []obs.Snapshot{d.cfg.Obs.Snapshot()}
	for _, t := range d.Tenants() {
		snaps = append(snaps, t.reg.Snapshot())
	}
	return obs.MergeSnapshots(snaps...)
}
