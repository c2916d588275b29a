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

// Tenant is one hosted (user, folder) pair. Its client owns the
// tenant's private registry, breaker tracker and quota tracker.
type Tenant struct {
	id     string
	weight float64
	names  []string // the tenant's cloud names, sorted
	client *core.Client
}

// Client returns the tenant's UniDrive client.
func (t *Tenant) Client() *core.Client { return t.client }

// Daemon hosts the tenants. All methods are safe for concurrent use.
// The tenants are fixed before Run: AddTenant registers a tenant, and
// Run starts every registered tenant's loops.
type Daemon struct {
	cfg  Config
	fair *transfer.FairScheduler

	mu      sync.Mutex
	tenants map[string]*Tenant
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
// scheduler — and registers it for Run.
func (d *Daemon) AddTenant(tc TenantConfig) (*Tenant, error) {
	if tc.ID == "" {
		return nil, fmt.Errorf("daemon: empty tenant ID")
	}
	cc := tc.Core
	cc.Obs = obs.NewRegistry()
	cc.Health = health.NewDefaultTracker(d.cfg.Clock, d.tenantSeed(tc.ID), cc.Obs)
	cc.Capacity = capacity.NewDefaultTracker(d.cfg.Clock, cc.Obs)
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
	t := &Tenant{id: tc.ID, weight: tc.Weight, names: names, client: client}

	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tenants[tc.ID]; dup {
		return nil, fmt.Errorf("daemon: duplicate tenant ID %q", tc.ID)
	}
	d.tenants[tc.ID] = t
	if tc.Weight > 0 {
		d.fair.SetWeight(tc.ID, tc.Weight)
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

// Run starts every tenant's sync loop (and scheduled scrub, when
// configured) and blocks until ctx is cancelled and all of them have
// drained. onError (which may be nil) receives per-tenant loop errors
// tagged with the tenant ID.
func (d *Daemon) Run(ctx context.Context, onError func(tenantID string, err error)) {
	if onError == nil {
		onError = func(string, error) {}
	}
	var wg sync.WaitGroup
	for _, t := range d.Tenants() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.client.RunLoop(ctx, func(err error) { onError(t.id, err) })
		}()
		if d.cfg.ScrubInterval > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.scrubLoop(ctx, t, onError)
			}()
		}
	}
	wg.Wait()
}

// scrubLoop runs the tenant's scheduled scrub cycles until ctx ends.
func (d *Daemon) scrubLoop(ctx context.Context, t *Tenant, onError func(tenantID string, err error)) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-d.cfg.Clock.After(d.cfg.ScrubInterval):
		}
		if _, err := t.client.Scrub(ctx, d.cfg.ScrubRepair); err != nil && ctx.Err() == nil {
			onError(t.id, err)
		}
	}
}

// FleetSnapshot merges the daemon registry and every tenant registry
// into one fleet-wide aggregate: counters and byte totals sum,
// latency percentiles come from exact bucket merges (see
// obs.MergeSnapshots).
func (d *Daemon) FleetSnapshot() obs.Snapshot {
	snaps := []obs.Snapshot{d.cfg.Obs.Snapshot()}
	for _, t := range d.Tenants() {
		snaps = append(snaps, t.client.Obs().Snapshot())
	}
	return obs.MergeSnapshots(snaps...)
}
