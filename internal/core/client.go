// Package core is UniDrive itself: the consumer-cloud-storage client
// that synergizes multiple CCSs into one synchronized folder (paper
// §4–§6).
//
// A Client owns one local sync folder and a set of clouds reachable
// only through the five public Web APIs. Per the paper's server-less,
// client-centric design, everything — metadata replication, locking,
// update signalling — happens via file uploads and downloads issued
// from the client:
//
//   - local edits are detected by a folder scanner and recorded in
//     the ChangedFileList;
//   - file content is cut into content-defined segments (dedup via
//     the reference-counted segment pool), erasure coded with a
//     non-systematic Reed–Solomon code, and the coded blocks are
//     spread over the clouds by the dynamic upload scheduler with
//     over-provisioning;
//   - metadata (the SyncFolderImage) is committed under the
//     quorum-file lock through the base+delta store and propagated
//     to other devices, which apply it by downloading any K blocks
//     per segment from the fastest clouds.
//
// Conflicting concurrent updates are retained as conflict-copy files
// (the paper's "retain both updates" policy, materialized the way
// commercial sync clients do).
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/chunker"
	"unidrive/internal/cloud"
	"unidrive/internal/deltasync"
	"unidrive/internal/health"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/metacrypt"
	"unidrive/internal/obs"
	"unidrive/internal/qlock"
	"unidrive/internal/sched"
	"unidrive/internal/transfer"
	"unidrive/internal/vclock"
)

// DefaultTheta is the paper's segment-size target θ (4 MB), which
// with k=3 yields the 1–2 MB block size the measurement study found
// optimal.
const DefaultTheta = 4 << 20

// Config parametrizes a UniDrive client.
type Config struct {
	// Device is this device's unique name.
	Device string
	// Passphrase derives the metadata encryption key; it must be the
	// same on all of the user's devices.
	Passphrase string
	// CipherAlg selects the metadata cipher; defaults to DES, as in
	// the paper.
	CipherAlg metacrypt.Algorithm
	// K, Kr, Ks are the coding and placement parameters (paper §6.1);
	// N is always the number of clouds passed to New. Defaults:
	// K=3, Kr=max(1,N-2) capped at N, Ks=min(2,Kr).
	K, Kr, Ks int
	// Theta is the content-defined segmentation target size.
	Theta int
	// ConnsPerCloud bounds concurrent transfers per cloud (paper
	// uses 5).
	ConnsPerCloud int
	// SyncInterval is τ, the period of the background sync loop. In
	// watch mode it paces the remote observer's stamp polls; in polling
	// mode (no watcher) it paces full passes exactly as before.
	SyncInterval time.Duration
	// The two event-loop knobs below are resolved lazily inside RunLoop
	// (not in fillDefaults) so their defaults track SyncInterval even
	// when it is adjusted after New; the loop's other periods derive
	// from these and SyncInterval (see loopIntervals).
	//
	// DebounceWindow is the settle window of the change buffer: a burst
	// of watcher events must go quiet for this long before the dirty
	// paths are scanned, so editor write-then-rename save patterns
	// coalesce into one pass. Default min(500ms, SyncInterval/4).
	DebounceWindow time.Duration
	// FullRescanInterval paces the full-folder safety-net rescan that
	// reconciles dropped watcher events. Default 10×SyncInterval in
	// watch mode; SyncInterval in polling mode (where the full pass IS
	// the loop).
	FullRescanInterval time.Duration
	// DisableWatch forces polling mode even on watchable folders.
	DisableWatch bool
	// OnPass, when non-nil, receives the report of every successful
	// RunLoop pass that committed or applied something.
	OnPass func(SyncReport)
	// Clock paces all waiting (lock refresh, retries, sync loop).
	Clock vclock.Clock
	// LockExpiry is the lock-breaking threshold ΔT.
	LockExpiry time.Duration
	// Obs, when non-nil, receives the client's full telemetry: every
	// Web API call of every cloud (per-cloud op table), the transfer
	// engine's counters, the prober's throughput gauges, and the
	// quorum lock's protocol counters.
	Obs *obs.Registry
	// Health, when non-nil, adds per-cloud circuit breakers: every
	// cloud's call chain is gated by its breaker, the transfer engine fails
	// blocks over to healthy clouds when a breaker opens (and hedges
	// straggling downloads), and the quorum lock skips open-breaker
	// clouds. Build one with health.NewDefaultTracker, sharing the
	// same Clock and Obs as this config.
	Health *health.Tracker
	// Capacity, when non-nil, adds per-cloud quota-exhaustion tracking:
	// the tracker observes every cloud's call chain (so each real
	// ErrQuotaExceeded is counted exactly once), the transfer engine
	// stops planning uploads onto Full clouds and re-plans quota-
	// rejected blocks onto clouds with space, segments that cannot
	// reach their full placement commit thin (≥ K blocks) and are
	// re-expanded by scrub/rebalance when space returns. A Full cloud
	// keeps serving downloads, lists and lock traffic. Build one with
	// capacity.NewDefaultTracker, sharing this config's Clock and Obs.
	Capacity *capacity.Tracker
	// ScrubRate caps the anti-entropy scrubber's block fetches per
	// second (see Client.Scrub); 0 leaves the scrub unpaced.
	ScrubRate float64
	// Fair, when non-nil, is a connection scheduler shared with the
	// other clients of a multi-tenant process (see internal/daemon):
	// this client's transfer engine then claims every connection slot
	// from it under the TenantID, so the process-wide per-cloud
	// connection budget is enforced across tenants with weighted-fair
	// arbitration. nil keeps the single-tenant behaviour.
	Fair *transfer.FairScheduler
	// TenantID names this client to the shared Fair scheduler.
	// Defaults to Device.
	TenantID string
}

func (c *Config) fillDefaults(n int) {
	if c.CipherAlg == 0 {
		c.CipherAlg = metacrypt.DES
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.Kr <= 0 {
		c.Kr = n - 2
		if c.Kr < 1 {
			c.Kr = 1
		}
	}
	if c.Kr > n {
		c.Kr = n
	}
	if c.Ks <= 0 {
		c.Ks = 2
	}
	if c.Ks > c.Kr {
		c.Ks = c.Kr
	}
	if c.Theta <= 0 {
		c.Theta = DefaultTheta
	}
	if c.ConnsPerCloud <= 0 {
		c.ConnsPerCloud = transfer.DefaultConnsPerCloud
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
	if c.LockExpiry <= 0 {
		c.LockExpiry = qlock.DefaultExpiry
	}
	if c.TenantID == "" {
		c.TenantID = c.Device
	}
}

// Client is one device's UniDrive instance.
type Client struct {
	cfg Config

	// stack is everything built over the cloud set; SetClouds replaces
	// it whole.
	stack
	folder  localfs.Folder
	scanner *localfs.Scanner
	chnk    *chunker.Chunker
	changes *meta.ChangedFileList
	journal *journal.Journal
	// crash is the test-only seeded crash harness (see crash.go).
	crash crashState

	// writer is held for the whole of every operation that commits,
	// moves v_o or writes the folder: a pass, the trim and the
	// capacity valve, scrub's repair commit, SetClouds, LoadState,
	// SaveState and Recover. It makes the client
	// one writer, whichever goroutine asks — the sync loop, a daemon's
	// scheduled scrub, a CLI — and so one acquirer of the quorum lock,
	// which does not exclude this device's own concurrent acquisitions.
	// It also guards the checkpoint cursor, the recovered map, the owed
	// placements and the last hold. mu below guards the fields read
	// outside the writer.
	writer sync.Mutex
	// owed are the placements an earlier pass's upload landed after its
	// commit's stamp, for the next lock hold to record (placements.go).
	owed owedPlacements
	// last is the device's last lock hold (hold.go), nil before its
	// first.
	last *hold

	mu sync.Mutex
	// view is the device's view of the committed metadata (the
	// algorithm's v_o).
	view *meta.Image
	// segData caches content of segments pending upload.
	segData map[string][]byte
	// recovered holds block placements adopted from a replayed crash
	// intent (segment ID -> block ID -> cloud); startUpload consumes an
	// entry the first time it plans the segment, seeding the plan, so
	// the re-upload pass skips blocks that already survive in the
	// clouds.
	recovered map[string]map[int]string

	// ckpt is the write cursor of the state checkpoint (see persist.go).
	ckpt checkpointCursor
}

// stack is the part of a Client that is built over the cloud set: the
// placement parameters its size fixes (Config.K, Kr and Ks are only
// their input), the chained clouds and the three components that talk
// to them.
type stack struct {
	params sched.Params
	clouds []cloud.Interface
	names  []string
	engine *transfer.Engine
	store  *deltasync.Store
	locks  *qlock.Manager
}

// newStack puts every raw connector behind its cloud call chain and
// builds the transfer engine, metadata store and lock manager over
// the result. New and SetClouds both come through here, so a
// rebalanced client is wired exactly like a fresh one.
//
// The chain order is fixed here. One request produces one cloud.Call,
// delivered in this order to:
//
//  1. the op table (cfg.Obs) — first, so that one recorded row entry is
//     one real API request whatever the later observers make of it;
//  2. the capacity tracker — it must see exactly the requests that
//     reached the provider (quota rejections reconcile one-for-one
//     against the simulator in the chaos soaks);
//  3. the cloud's breaker — which is also the chain's gate: a call it
//     refuses fails fast with cloud.ErrCircuitOpen and is told to
//     nobody, because a refusal is not an API request (no op-table
//     row) and not capacity evidence;
//  4. the prober — last: ALL admitted traffic (version checks,
//     metadata, lock flags, blocks) doubles as an in-channel probe
//     (paper §6.2), and control-plane calls touch every cloud early,
//     so the schedulers have a ranking before the first block moves.
func newStack(cfg Config, params sched.Params, raw []cloud.Interface, prober *sched.Prober, cipher *metacrypt.Cipher) stack {
	st := stack{params: params, clouds: make([]cloud.Interface, len(raw)), names: make([]string, len(raw))}
	for i, c := range raw {
		var observers []cloud.Observer
		var gate cloud.Gate
		if cfg.Obs != nil {
			observers = append(observers, cfg.Obs.ObserveCall)
		}
		if cfg.Capacity != nil {
			observers = append(observers, cfg.Capacity.ObserveCall)
		}
		if cfg.Health != nil {
			breaker := cfg.Health.Breaker(c.Name())
			gate, observers = breaker, append(observers, breaker.ObserveCall)
		}
		st.clouds[i] = cloud.NewChain(c, cfg.Clock, gate, append(observers, prober.ObserveCall)...)
		st.names[i] = c.Name()
	}
	sort.Strings(st.names)
	st.engine = transfer.New(st.clouds, prober, transfer.Config{
		ConnsPerCloud: cfg.ConnsPerCloud,
		Clock:         cfg.Clock,
		Obs:           cfg.Obs,
		Health:        cfg.Health,
		Capacity:      cfg.Capacity,
		Fair:          cfg.Fair,
		Tenant:        cfg.TenantID,
	})
	st.store = deltasync.New(st.clouds, cipher, deltasync.Config{Device: cfg.Device, Obs: cfg.Obs})
	st.locks = qlock.New(st.clouds, qlock.Config{
		Device: cfg.Device,
		Expiry: cfg.LockExpiry,
		Clock:  cfg.Clock,
		Obs:    cfg.Obs,
		Health: voteGate{Health: cfg.Health, Capacity: cfg.Capacity},
	})
	return st
}

// voteGate adapts the eligibility view to the lock manager's Health
// interface: a cloud takes part in a lock round while it holds a
// quorum vote.
type voteGate transfer.Eligibility

func (g voteGate) Admits(cloudName string) bool {
	return transfer.Eligibility(g).HoldsVote(cloudName)
}

// New creates a UniDrive client over the given clouds and local
// folder. The clouds' Name()s are the Cloud-IDs recorded in metadata
// and must be stable across devices and restarts.
func New(clouds []cloud.Interface, folder localfs.Folder, cfg Config) (*Client, error) {
	if len(clouds) < 1 {
		return nil, fmt.Errorf("core: need at least one cloud")
	}
	if cfg.Device == "" {
		return nil, fmt.Errorf("core: empty device name")
	}
	if cfg.Passphrase == "" {
		return nil, fmt.Errorf("core: empty passphrase")
	}
	cfg.fillDefaults(len(clouds))
	params := sched.Params{N: len(clouds), K: cfg.K, Kr: cfg.Kr, Ks: cfg.Ks}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	cipher, err := metacrypt.New(cfg.CipherAlg, cfg.Passphrase)
	if err != nil {
		return nil, err
	}
	chnk, err := chunker.New(cfg.Theta)
	if err != nil {
		return nil, err
	}
	prober := sched.NewProber(0)
	prober.SetObs(cfg.Obs)
	cl := &Client{
		cfg:       cfg,
		folder:    folder,
		scanner:   localfs.NewScanner(folder),
		chnk:      chnk,
		stack:     newStack(cfg, params, clouds, prober, cipher),
		changes:   meta.NewChangedFileList(),
		view:      meta.NewImage(),
		segData:   make(map[string][]byte),
		recovered: make(map[string]map[int]string),
	}
	// The intent journal lives inside the sync folder; a damaged file
	// (possible only on non-durable folders) resets to empty rather
	// than wedging the client, surfaced as an obs counter.
	jl, intact, err := journal.Open(folder)
	if err != nil {
		return nil, fmt.Errorf("core: opening intent journal: %w", err)
	}
	if !intact {
		cfg.Obs.Counter("journal.damaged").Inc()
	}
	cl.journal = jl
	return cl, nil
}

// Params returns the client's placement parameters.
func (c *Client) Params() sched.Params { return c.params }

// Device returns the device name.
func (c *Client) Device() string { return c.cfg.Device }

// Obs returns the client's metrics registry (nil when none was
// configured).
func (c *Client) Obs() *obs.Registry { return c.cfg.Obs }

// Health returns the client's breaker tracker (nil when none was
// configured).
func (c *Client) Health() *health.Tracker { return c.cfg.Health }

// Capacity returns the client's quota-exhaustion tracker (nil when
// none was configured).
func (c *Client) Capacity() *capacity.Tracker { return c.cfg.Capacity }

// Image returns a deep copy of the device's current view of the
// committed metadata.
func (c *Client) Image() *meta.Image {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view.Clone()
}

// FetchImage fetches the current committed metadata image from the
// clouds and returns a deep copy. Read-only with respect to the local
// folder and the clouds' data — the metadata view behind `unidrive
// status`.
func (c *Client) FetchImage(ctx context.Context) (*meta.Image, error) {
	img, err := c.store.Refresh(ctx)
	if err != nil {
		return nil, err
	}
	return img.Clone(), nil
}

// setLast moves the device's view. Only LoadState (restoring it) and
// advance (apply.go) may call it.
func (c *Client) setLast(img *meta.Image) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.view = img
}

func (c *Client) lastImage() *meta.Image {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

func (c *Client) cacheSegment(id string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.segData[id]; !ok {
		c.segData[id] = data
	}
}

func (c *Client) cachedSegment(id string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.segData[id]
	return d, ok
}

func (c *Client) dropSegmentCache(ids []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		delete(c.segData, id)
	}
}
