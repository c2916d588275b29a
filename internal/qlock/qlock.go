// Package qlock implements UniDrive's quorum-based distributed
// mutual-exclusion lock (paper §5.2).
//
// The lock serializes metadata commits from different devices using
// nothing but the five file-access Web APIs. A device attempting to
// lock uploads an EMPTY flag file named "lock_<device>_<stamp>" into
// a dedicated lock directory on every cloud, then lists that
// directory on each cloud: it holds a cloud's lock iff every listed
// lock file is its own. Holding a majority (quorum) of clouds wins;
// otherwise the device withdraws its files everywhere and retries
// after a random backoff. Withdrawing and releasing delete by name:
// the manager keeps a record of which of its flag files exist on which
// cloud, so a lock hold is three fan-outs — upload, list, delete.
//
// The protocol needs only read-after-write list consistency from each
// cloud. It requires no global clock: timestamps inside lock names
// are purely to make names unique, and obsolescence of a crashed
// holder's lock is judged by each OBSERVER's own clock — a lock file
// first seen more than ΔT ago (and still present) is broken by
// deletion. A live holder prevents this by periodically refreshing:
// uploading a freshly named lock file and removing the old one, which
// resets every observer's first-seen time.
package qlock

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

// DefaultExpiry is the paper's suggested obsolescence threshold ΔT.
const DefaultExpiry = 120 * time.Second

// DefaultLockDir is the dedicated lock directory. A dedicated
// directory keeps List responses small (paper footnote 3: it holds at
// most one file per device).
const DefaultLockDir = ".unidrive/locks"

// ErrNotAcquired reports that the quorum could not be won within the
// configured attempts.
var ErrNotAcquired = errors.New("qlock: lock not acquired")

// Health gates which clouds the lock protocol talks to; a
// health.Tracker satisfies it. A cloud whose breaker is open cannot
// answer within its deadline anyway, so the protocol skips it rather
// than letting a single dead provider slow every quorum round to the
// timeout. The quorum threshold itself never shrinks — it stays a
// strict majority of ALL configured clouds, so mutual exclusion is
// preserved no matter what the local breaker state claims.
type Health interface {
	Admits(cloudName string) bool
}

// ErrLost reports that a held lock is no longer valid (refresh could
// not maintain the quorum).
var ErrLost = errors.New("qlock: lock lost")

// Config parametrizes a lock Manager.
type Config struct {
	// Device is this device's unique name.
	Device string
	// Expiry is ΔT: how long a lock file may sit unrefreshed before
	// other devices break it. Defaults to DefaultExpiry.
	Expiry time.Duration
	// RefreshInterval is how often a holder renews its lock files.
	// Defaults to Expiry/4.
	RefreshInterval time.Duration
	// MaxAttempts bounds acquisition attempts; 0 means retry until
	// the context is cancelled.
	MaxAttempts int
	// BackoffBase is the first random-backoff ceiling; it doubles
	// every failed attempt up to BackoffMax. Defaults 200ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
	// Seed drives backoff jitter; 0 derives one from the device name.
	Seed int64
	// Obs receives the lock protocol's metrics ("qlock.*": acquire
	// attempts, quorum round-trips, contention backoffs, refreshes,
	// broken locks). nil disables recording.
	Obs *obs.Registry
	// Health, when set, lets the protocol skip clouds whose circuit
	// breaker is open (degraded rounds). nil means all clouds are
	// always addressed.
	Health Health
}

func (c *Config) fillDefaults() {
	if c.Expiry <= 0 {
		c.Expiry = DefaultExpiry
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = c.Expiry / 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 200 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
	if c.Seed == 0 {
		for _, b := range []byte(c.Device) {
			c.Seed = c.Seed*131 + int64(b)
		}
		c.Seed++
	}
}

// Manager acquires and releases the metadata lock over a fixed set of
// clouds. Its methods do not race, but concurrent acquisitions through
// one Manager are NOT mutually exclusive: a round counts every flag
// file of its own device as held, so a second Acquire wins while the
// first lock is held, and Release deletes every own flag file, the
// other hold's included. The caller must serialize its acquisitions
// (core.Client does, with its one writer); the lock excludes other
// devices, not this one.
type Manager struct {
	clouds []cloud.Interface
	cfg    Config

	mu        sync.Mutex
	rng       *rand.Rand
	counter   int64
	firstSeen map[string]map[string]time.Time // cloud name -> lock file -> first seen
	// own is, per cloud, the flag files of this device known to exist
	// there: every name this manager uploaded and has not deleted, plus
	// own-device names an acquisition List showed (a crashed
	// incarnation's leftovers, or an upload that landed though it
	// reported failure). Withdraw and release delete exactly these, by
	// name.
	own map[string]map[string]bool
}

// New creates a lock manager. It panics if no clouds or no device
// name are given (programming errors).
func New(clouds []cloud.Interface, cfg Config) *Manager {
	if len(clouds) == 0 {
		panic("qlock: no clouds")
	}
	if cfg.Device == "" {
		panic("qlock: empty device name")
	}
	cfg.fillDefaults()
	return &Manager{
		clouds:    clouds,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		firstSeen: make(map[string]map[string]time.Time),
		own:       make(map[string]map[string]bool),
	}
}

// Quorum returns the number of clouds whose lock must be won: a
// strict majority of all configured clouds.
func (m *Manager) Quorum() int { return len(m.clouds)/2 + 1 }

// lockFileName generates a fresh, unique lock file name for this
// device. The embedded stamp is this device's local time plus a
// counter; it is never compared across devices.
func (m *Manager) lockFileName() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counter++
	return fmt.Sprintf("lock_%s_%d.%d", m.cfg.Device, m.cfg.Clock.Now().UnixNano(), m.counter)
}

// ownedBy reports whether the lock file name belongs to device.
func ownedBy(name, device string) bool {
	return strings.HasPrefix(name, "lock_"+device+"_")
}

// isLockFile reports whether the entry looks like a lock flag file.
func isLockFile(e cloud.Entry) bool {
	return !e.IsDir && strings.HasPrefix(e.Name, "lock_")
}

// Acquire runs the acquisition protocol until it wins a quorum, the
// context is cancelled, or MaxAttempts is exhausted. On success the
// returned Lock is being refreshed in the background; the caller must
// Release it.
func (m *Manager) Acquire(ctx context.Context) (*Lock, error) {
	backoff := m.cfg.BackoffBase
	for attempt := 0; ; attempt++ {
		if m.cfg.MaxAttempts > 0 && attempt >= m.cfg.MaxAttempts {
			m.cfg.Obs.Counter("qlock.acquire.exhausted").Inc()
			return nil, fmt.Errorf("%w after %d attempts", ErrNotAcquired, attempt)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("qlock: acquire: %w", err)
		}
		m.cfg.Obs.Counter("qlock.acquire.attempts").Inc()
		name := m.lockFileName()
		won := m.tryOnce(ctx, name)
		if won >= m.Quorum() {
			m.cfg.Obs.Counter("qlock.acquire.won").Inc()
			l := &Lock{mgr: m, valid: true, stopRefresh: make(chan struct{})}
			l.name = name
			l.refreshDone.Add(1)
			go l.refreshLoop()
			return l, nil
		}
		// Withdraw (delete all own lock files, including this
		// attempt's) and back off for a random time (paper §5.2).
		m.cfg.Obs.Counter("qlock.backoffs").Inc()
		m.deleteOwnLocks(ctx)
		m.sleepJittered(ctx, backoff)
		backoff *= 2
		if backoff > m.cfg.BackoffMax {
			backoff = m.cfg.BackoffMax
		}
	}
}

// admits reports whether the health gate (if any) lets the protocol
// address the named cloud right now.
func (m *Manager) admits(name string) bool {
	return m.cfg.Health == nil || m.cfg.Health.Admits(name)
}

// admitted returns which clouds the current round may address and
// publishes the count. The callers treat a non-admitted cloud exactly
// like one whose upload failed: it contributes nothing to the quorum.
func (m *Manager) admitted() []bool {
	ok := make([]bool, len(m.clouds))
	n := 0
	for i, c := range m.clouds {
		if m.admits(c.Name()) {
			ok[i] = true
			n++
		}
	}
	m.cfg.Obs.Gauge("qlock.admitted_clouds").Set(float64(n))
	if n < len(m.clouds) {
		m.cfg.Obs.Counter("qlock.degraded_rounds").Inc()
	}
	if n < m.Quorum() {
		// Not enough live clouds to possibly win: the round is lost
		// before any request goes out. Observable so operators can
		// tell "lock contended" from "too many providers down".
		m.cfg.Obs.Counter("qlock.quorum_blocked").Inc()
	}
	return ok
}

// tryOnce uploads the lock file everywhere and counts won clouds.
// Each call is one quorum round-trip: an upload fan-out followed by a
// list fan-out over all admitted clouds.
func (m *Manager) tryOnce(ctx context.Context, name string) int {
	m.cfg.Obs.Counter("qlock.rounds").Inc()
	admitted := m.admitted()
	n := 0
	for _, ok := range admitted {
		if ok {
			n++
		}
	}
	if n < m.Quorum() {
		// Too few live clouds to possibly win; send nothing.
		return 0
	}
	path := cloud.JoinPath(DefaultLockDir, name)
	var wg sync.WaitGroup
	uploaded := make([]bool, len(m.clouds))
	for i, c := range m.clouds {
		if !admitted[i] {
			continue
		}
		wg.Add(1)
		go func(i int, c cloud.Interface) {
			defer wg.Done()
			if c.Upload(ctx, path, nil) == nil {
				uploaded[i] = true
				m.noteOwn(c.Name(), name)
			}
		}(i, c)
	}
	wg.Wait()

	won := make([]bool, len(m.clouds))
	for i, c := range m.clouds {
		wg.Add(1)
		go func(i int, c cloud.Interface) {
			defer wg.Done()
			if !uploaded[i] {
				return
			}
			won[i] = m.checkCloud(ctx, c)
		}(i, c)
	}
	wg.Wait()

	count := 0
	for _, w := range won {
		if w {
			count++
		}
	}
	return count
}

// checkCloud lists the lock directory on c and reports whether this
// device holds that cloud's lock: every (non-obsolete) lock file
// present belongs to this device. Obsolete foreign lock files —
// first seen by this manager more than Expiry ago — are broken
// (deleted) and ignored.
func (m *Manager) checkCloud(ctx context.Context, c cloud.Interface) bool {
	entries, err := c.List(ctx, DefaultLockDir)
	if err != nil {
		return false
	}
	now := m.cfg.Clock.Now()
	live := m.trackFirstSeen(c.Name(), entries, now)
	ok := true
	for _, name := range live {
		if ownedBy(name, m.cfg.Device) {
			m.noteOwn(c.Name(), name)
			continue
		}
		if now.Sub(m.firstSeenAt(c.Name(), name)) > m.cfg.Expiry {
			// Obsolete: the holder crashed or lost connectivity.
			// Break the lock (paper §5.2 lock-breaking).
			m.cfg.Obs.Counter("qlock.broken_locks").Inc()
			_ = c.Delete(ctx, cloud.JoinPath(DefaultLockDir, name))
			continue
		}
		m.cfg.Obs.Counter("qlock.contended_checks").Inc()
		ok = false
	}
	return ok
}

// trackFirstSeen records when each currently listed lock file was
// first observed and forgets files that disappeared. It returns the
// names of the currently listed lock files.
func (m *Manager) trackFirstSeen(cloudName string, entries []cloud.Entry, now time.Time) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := m.firstSeen[cloudName]
	if seen == nil {
		seen = make(map[string]time.Time)
		m.firstSeen[cloudName] = seen
	}
	current := make(map[string]bool, len(entries))
	var names []string
	for _, e := range entries {
		if !isLockFile(e) {
			continue
		}
		current[e.Name] = true
		names = append(names, e.Name)
		if _, ok := seen[e.Name]; !ok {
			seen[e.Name] = now
		}
	}
	for name := range seen {
		if !current[name] {
			delete(seen, name)
		}
	}
	return names
}

func (m *Manager) firstSeenAt(cloudName, lockName string) time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firstSeen[cloudName][lockName]
}

// noteOwn records that a flag file of this device exists on the cloud.
func (m *Manager) noteOwn(cloudName, lockName string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := m.own[cloudName]
	if names == nil {
		names = make(map[string]bool)
		m.own[cloudName] = names
	}
	names[lockName] = true
}

// forgetOwn records that the flag file is gone from the cloud.
func (m *Manager) forgetOwn(cloudName, lockName string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.own[cloudName], lockName)
}

// takeOwn returns the flag files of this device recorded on the cloud
// and forgets them: each delete is tried once. One that fails leaves a
// file the next acquisition's List shows again (and other devices
// break after Expiry), so nothing is retried blindly against a cloud
// that stays down.
func (m *Manager) takeOwn(cloudName string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.own[cloudName]))
	for name := range m.own[cloudName] {
		names = append(names, name)
	}
	delete(m.own, cloudName)
	return names
}

// deleteOwnLocks removes this device's flag files from all clouds, by
// name: the current attempt's or hold's file wherever its upload
// succeeded, own-device names an acquisition List showed, and old names
// a refresh could not delete. Used on withdraw and release. No List is
// needed — every file this manager created is on its record, and one
// it does not know of is found by the next acquisition's List — and a
// cloud holding nothing of ours gets no request at all.
func (m *Manager) deleteOwnLocks(ctx context.Context) {
	var wg sync.WaitGroup
	for _, c := range m.clouds {
		names := m.takeOwn(c.Name())
		if len(names) == 0 {
			continue
		}
		wg.Add(1)
		go func(c cloud.Interface) {
			defer wg.Done()
			for _, name := range names {
				_ = c.Delete(ctx, cloud.JoinPath(DefaultLockDir, name))
			}
		}(c)
	}
	wg.Wait()
}

func (m *Manager) sleepJittered(ctx context.Context, ceiling time.Duration) {
	m.mu.Lock()
	d := time.Duration(m.rng.Int63n(int64(ceiling)) + int64(ceiling)/4)
	m.mu.Unlock()
	select {
	case <-ctx.Done():
	case <-m.cfg.Clock.After(d):
	}
}

// Lock is a held quorum lock. It refreshes itself in the background
// until released.
type Lock struct {
	mgr         *Manager
	stopRefresh chan struct{}
	stopOnce    sync.Once
	refreshDone sync.WaitGroup

	mu    sync.Mutex
	name  string // current lock file name
	valid bool
}

// Valid reports whether the lock still held a quorum at the last
// refresh. Callers must check Valid immediately before committing the
// protected update.
func (l *Lock) Valid() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.valid
}

// refreshLoop periodically renews the lock files so observers never
// see them unrefreshed past ΔT. Renewal uploads a freshly named file
// and deletes the old one, which resets every observer's first-seen
// clock for this device's lock.
func (l *Lock) refreshLoop() {
	defer l.refreshDone.Done()
	m := l.mgr
	for {
		select {
		case <-l.stopRefresh:
			return
		case <-m.cfg.Clock.After(m.cfg.RefreshInterval):
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		l.refreshOnce(ctx)
		cancel()
	}
}

// refreshOnce uploads a new lock file on all clouds and removes the
// previous one. Validity while HOLDING is judged by whether the lock
// files could be renewed on a quorum — not by the acquisition
// criterion ("only my files present"): a contender's flag file may
// sit in the directory for a moment before the contender sees ours
// and withdraws, and that transient presence must not scare the
// legitimate holder off.
func (l *Lock) refreshOnce(ctx context.Context) {
	m := l.mgr
	newName := m.lockFileName()
	l.mu.Lock()
	oldName := l.name
	l.mu.Unlock()

	newPath := cloud.JoinPath(DefaultLockDir, newName)
	oldPath := cloud.JoinPath(DefaultLockDir, oldName)
	admitted := m.admitted()
	var wg sync.WaitGroup
	held := make([]bool, len(m.clouds))
	for i, c := range m.clouds {
		if !admitted[i] {
			// A skipped cloud cannot renew; it simply does not count
			// toward the refresh quorum, same as a failed upload.
			continue
		}
		wg.Add(1)
		go func(i int, c cloud.Interface) {
			defer wg.Done()
			if err := c.Upload(ctx, newPath, nil); err != nil {
				return
			}
			m.noteOwn(c.Name(), newName)
			// An old name that could not be deleted stays on record and
			// goes with the release.
			if err := c.Delete(ctx, oldPath); err == nil || errors.Is(err, cloud.ErrNotFound) {
				m.forgetOwn(c.Name(), oldName)
			}
			// Renewed on this cloud (read-after-write: the new flag
			// file is visible to every later List).
			held[i] = true
		}(i, c)
	}
	wg.Wait()

	count := 0
	for _, h := range held {
		if h {
			count++
		}
	}
	l.mu.Lock()
	l.name = newName
	m.cfg.Obs.Counter("qlock.refreshes").Inc()
	if count < m.Quorum() {
		m.cfg.Obs.Counter("qlock.refresh_lost").Inc()
		l.valid = false
	}
	l.mu.Unlock()
}

// Release stops refreshing and deletes this device's lock files from
// all clouds. It is idempotent.
func (l *Lock) Release(ctx context.Context) error {
	l.stopOnce.Do(func() {
		close(l.stopRefresh)
		l.mgr.cfg.Obs.Counter("qlock.released").Inc()
	})
	l.mu.Lock()
	l.valid = false
	l.mu.Unlock()
	l.refreshDone.Wait()
	l.mgr.deleteOwnLocks(ctx)
	return nil
}
