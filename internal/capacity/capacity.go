// Package capacity is UniDrive's per-cloud quota-exhaustion tracker.
//
// The paper aggregates small consumer free tiers (§6), so running a
// provider out of space is an expected steady state, not an outage.
// Quota rejections are deliberately NOT circuit-breaker evidence (a
// full cloud still serves downloads, lists, and lock traffic
// perfectly well); this package tracks the one axis the health layer
// ignores: whether a cloud can accept MORE BYTES.
//
// Every observed cloud.ErrQuotaExceeded moves that cloud to Full, and
// the transfer engine stops planning new uploads onto it (placement
// re-plans within MaxPerCloud, exactly like dead-cloud failover — but
// download, list and lock traffic keeps flowing). Two signals re-open
// a Full cloud for a probe:
//
//	Full ──(a delete succeeded)─────▶ Probing ──(upload ok)──▶ OK
//	  ▲  ──(ProbeInterval elapsed)──▶    │
//	  └──────(quota error again)─────────┘
//
// Probing (the "Tight" state) admits upload traffic again; the first
// successful upload re-admits the cloud fully, the first quota
// rejection slams it back to Full and restarts the cooldown. The
// interval path matters because quota can return without this client
// observing a delete — the user empties trash in the provider's web
// UI, another device garbage-collects, or an operator raises the
// plan.
//
// Byte accounting is session-relative: UsedDelta is the bytes this
// tracker has watched uploaded to the cloud this session (a delete's
// size is not known), not the provider-absolute usage, which consumer
// APIs rarely report honestly. It exists to size the pressure valve
// and the status view, not to predict rejections — the provider's own
// ErrQuotaExceeded is always the ground truth.
//
// Everything is deterministic under test: time comes from the
// injected vclock.Clock, and Rejections() exposes the exact count of
// observed quota errors per cloud so chaos soaks can reconcile
// simulator-injected rejections one-for-one against tracker
// observations.
package capacity

import (
	"sort"
	"sync"
	"time"

	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

// State classifies a cloud's capacity. The zero value is OK.
type State int

const (
	// OK: no quota pressure observed; uploads flow normally.
	OK State = iota
	// Probing: the cloud was Full but space may have returned (bytes
	// freed, or the re-probe cooldown elapsed); upload traffic is
	// admitted again and the next outcome decides OK vs Full.
	Probing
	// Full: the cloud rejected an upload with ErrQuotaExceeded and no
	// recovery signal has been seen since. No new uploads are planned
	// onto it; downloads, lists and locks are unaffected.
	Full
)

// String returns the lowercase state name used in status views.
func (s State) String() string {
	switch s {
	case OK:
		return "ok"
	case Probing:
		return "probing"
	case Full:
		return "full"
	default:
		return "unknown"
	}
}

// ProbeInterval is the cooldown after which a Full cloud becomes
// Probing even with no observed delete, so externally-reclaimed quota
// (web-UI trash emptying, plan upgrades) is eventually rediscovered.
const ProbeInterval = 60 * time.Second

// record is one cloud's capacity bookkeeping.
type record struct {
	state      State
	usedDelta  int64     // bytes uploaded this session
	fullAt     time.Time // when the cloud last went Full
	rejections int64     // total observed quota errors
}

// Tracker holds one capacity record per cloud, created lazily on
// first use. A single Tracker is shared by the whole client stack so
// the transfer engine, scrubber and maintenance passes all see the
// same picture of each cloud's remaining space. A nil *Tracker is
// valid and tracks nothing: every cloud admits, every observation is
// discarded — the capacity layer off.
type Tracker struct {
	clock vclock.Clock
	obs   *obs.Registry

	mu      sync.Mutex
	records map[string]*record
}

// NewDefaultTracker returns a Tracker whose re-probe cooldown runs on
// clk; reg receives capacity state gauges and rejection counters (nil
// discards them).
func NewDefaultTracker(clk vclock.Clock, reg *obs.Registry) *Tracker {
	return &Tracker{clock: clk, obs: reg, records: make(map[string]*record)}
}

func (t *Tracker) recordLocked(cloudName string) *record {
	r, ok := t.records[cloudName]
	if !ok {
		r = &record{}
		t.records[cloudName] = r
		t.obs.Gauge("capacity." + cloudName + ".state").Set(float64(OK))
	}
	return r
}

func (t *Tracker) setStateLocked(cloudName string, r *record, s State) {
	if r.state == s {
		return
	}
	r.state = s
	t.obs.Gauge("capacity." + cloudName + ".state").Set(float64(s))
}

// refreshLocked applies the time-based re-probe transition.
func (t *Tracker) refreshLocked(cloudName string, r *record) {
	if r.state != Full {
		return
	}
	if t.clock.Now().Sub(r.fullAt) >= ProbeInterval {
		t.setStateLocked(cloudName, r, Probing)
		t.obs.Counter("capacity.probe_opened").Inc()
	}
}

// ObserveQuotaExceeded records one quota rejection for the named
// cloud: the cloud goes Full (Probing → Full restarts the cooldown)
// and the rejection is counted for chaos reconciliation. Callers must
// report each rejected request exactly once.
func (t *Tracker) ObserveQuotaExceeded(cloudName string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recordLocked(cloudName)
	r.rejections++
	t.obs.Counter("capacity.quota_rejections").Inc()
	t.obs.Counter("capacity." + cloudName + ".quota_rejections").Inc()
	if r.state != Full {
		t.obs.Counter("capacity.full_marks").Inc()
	}
	r.fullAt = t.clock.Now()
	t.setStateLocked(cloudName, r, Full)
}

// ObserveUpload records bytes successfully stored on the named cloud.
// A successful upload is proof of space: a Probing (or even Full —
// e.g. a racing in-flight upload that landed) cloud re-admits to OK.
func (t *Tracker) ObserveUpload(cloudName string, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recordLocked(cloudName)
	r.usedDelta += bytes
	if r.state != OK {
		t.obs.Counter("capacity.readmitted").Inc()
		t.setStateLocked(cloudName, r, OK)
	}
}

// ObserveDelete records a successful delete on the named cloud. A
// Full cloud becomes Probing — the probe-after-free recovery path: the
// delete freed something (cloud.Interface does not say how much), and
// a spurious probe costs one failed upload.
func (t *Tracker) ObserveDelete(cloudName string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recordLocked(cloudName)
	if r.state == Full {
		t.setStateLocked(cloudName, r, Probing)
		t.obs.Counter("capacity.probe_opened").Inc()
	}
}

// Admits reports whether the named cloud is currently worth planning
// NEW UPLOAD work on: its state is OK or Probing. It never gates
// downloads, lists or lock traffic — a full cloud serves all of
// those. The time-based re-probe transition is applied on the way.
func (t *Tracker) Admits(cloudName string) bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recordLocked(cloudName)
	t.refreshLocked(cloudName, r)
	return r.state != Full
}

// State returns the named cloud's current capacity state (after
// applying the time-based re-probe transition).
func (t *Tracker) State(cloudName string) State {
	if t == nil {
		return OK
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recordLocked(cloudName)
	t.refreshLocked(cloudName, r)
	return r.state
}

// WithSpace filters candidates down to clouds that currently admit
// uploads, preserving order but moving Probing clouds after OK ones —
// a probe should be the last resort, not the first target.
func (t *Tracker) WithSpace(candidates []string) []string {
	if t == nil {
		return append([]string(nil), candidates...)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ok := make([]string, 0, len(candidates))
	probing := make([]string, 0)
	for _, name := range candidates {
		r := t.recordLocked(name)
		t.refreshLocked(name, r)
		switch r.state {
		case OK:
			ok = append(ok, name)
		case Probing:
			probing = append(probing, name)
		}
	}
	return append(ok, probing...)
}

// Rejections returns the total observed quota rejections for the
// named cloud — the reconciliation hook for chaos soaks.
func (t *Tracker) Rejections(cloudName string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recordLocked(cloudName).rejections
}

// CloudState is one row of a capacity snapshot.
type CloudState struct {
	Cloud      string `json:"cloud"`
	State      string `json:"state"`
	UsedDelta  int64  `json:"used_delta_bytes"`
	Rejections int64  `json:"quota_rejections"`
}

// Snapshot returns every tracked cloud's capacity row, sorted by
// cloud name, with the time-based re-probe transition applied. Only
// clouds the tracker has observed (or been asked about) appear.
func (t *Tracker) Snapshot() []CloudState {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]CloudState, 0, len(t.records))
	for name, r := range t.records {
		t.refreshLocked(name, r)
		out = append(out, CloudState{
			Cloud:      name,
			State:      r.state.String(),
			UsedDelta:  r.usedDelta,
			Rejections: r.rejections,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cloud < out[j].Cloud })
	return out
}

// AnyFull reports whether any tracked cloud is currently Full —
// the cheap "is there capacity pressure at all" predicate the
// maintenance passes use to decide whether the pressure valve and
// re-expansion are worth running.
func (t *Tracker) AnyFull() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, r := range t.records {
		t.refreshLocked(name, r)
		if r.state == Full {
			return true
		}
	}
	return false
}
