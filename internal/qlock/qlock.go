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
// A round is quorum-paced. Each cloud runs its own chain, flag upload
// then list, with no barrier between the clouds: a device lists a
// cloud only after its own flag landed there, which is all mutual
// exclusion needs (of two contenders on one cloud, the one listing
// second sees the other's flag, and two majorities share a cloud). The
// round is decided at the Quorum()-th answer — won at the Quorum()-th
// cloud held, lost as soon as the clouds still out cannot make up a
// quorum — so it waits for the quorum-th fastest cloud, not the
// slowest. The chains still running then (stragglers) keep going —
// recording own flags, tracking first-seen times, breaking obsolete
// locks.
//
// A round asks only as many clouds as it needs. The first round of a
// manager, and any round after a lost one, asks every admitted cloud.
// A round after a won one starts chains only on the Quorum() clouds
// that won it — on five clouds, an uncontended hold is then nine lock
// requests instead of fifteen, and its release waits on no slow
// cloud's chain — and starts a chain on one more admitted cloud for
// each of them that answers "not held" or fails, and for each that has
// not answered within widenFactor times the previous round's quorum
// time (qlock.widened). Exclusion does not care which clouds were
// asked: a round is won only on Quorum() held clouds, a strict majority
// of all configured clouds, never of the clouds asked, so the argument
// below holds as it stands. A round that asks fewer clouds is not a
// degraded one: qlock.degraded_rounds and qlock.admitted_clouds speak
// of the health gate alone.
//
// A won hold keeps its flags on the quorum that won it and nowhere
// else: every other chain of the round (a straggler, or a cloud that
// answered "not held" before the win) sheds — deletes this device's
// flags on its cloud — as it ends, on a context of its own. Exclusion
// does not need more. On each cloud of the winning quorum our list
// showed no live foreign flag, so a contender's flag landed there
// after our list, hence after our flag, and the contender's own list
// there shows ours: it cannot hold any cloud of our quorum while we
// hold, and the clouds outside it are a minority. Our quorum's flags
// stay until the release. The shed runs inside the chain, so a refresh
// (which joins the round's chains first) and a release (which waits for
// each cloud's chain) wait for it as they waited for the chain before.
// A refresh renews on every admitted cloud, so the first renewal
// re-flags the shed clouds: validity stays "renewed on at least
// Quorum() clouds", judged by the renewal alone, and since the refresh
// interval (ΔT/4) is well below ΔT, no flag of the winning quorum can
// age into a break before that first renewal.
//
// Withdraw and Release follow one rule (clear): on each cloud, once the
// round's chain there has ended, delete the own flags recorded with the
// round's generation, so a flag that lands late is not orphaned; a
// cloud whose flags were shed gets no request. Refresh joins the
// stragglers before it renews. A clear or a join waits until the
// caller's deadline at most, then cancels the stragglers; a clear's and
// a shed's deletes run on a context of their own, so what a cancelled
// straggler landed is still deleted as it ends. Each round tags the
// flags it records with its generation, and a withdraw, a shed or a
// Release deletes only flags of its own round: never those of a hold
// won after it, nor those of an earlier hold not yet released. So a
// Release may run beside the same Manager's next Acquire, or start
// after it: the new round wins on its own device's flags as on any free
// cloud, a List of it that shows a flag of the earlier hold leaves that
// flag to the earlier hold's Release, and the new round, withdrawn,
// shed or released, deletes only what it uploaded or recorded. The
// earlier hold keeps its quorum until its own Release, whatever the
// rounds beside it do.
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
	"math"
	"math/rand"
	"slices"
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

// detachedTimeout bounds the lock's requests that no caller's context
// governs: a refresh, and a withdraw, which must not inherit the
// caller's cancellation.
const detachedTimeout = 30 * time.Second

// backoffBase is the first random-backoff ceiling after a lost round;
// it doubles every lost round up to backoffMax.
const (
	backoffBase = 200 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// widenFactor and widenFloor bound how long a quorum-only round waits
// for the clouds it asked before it asks one more cloud for each that
// is still silent: widenFactor times the previous round's quorum time,
// and never less than widenFloor, so that scheduling noise on a fast
// or loaded host does not widen a round. A cloud that hangs costs the
// round this wait instead of a request timeout (30 s over HTTP).
const (
	widenFactor = 4
	widenFloor  = 500 * time.Millisecond
)

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
	// other devices break it; a holder renews its flags every
	// Expiry/4. Defaults to DefaultExpiry.
	Expiry time.Duration
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
	// Obs receives the lock protocol's metrics ("qlock.*", DESIGN.md
	// §6). nil disables recording.
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
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
}

// Manager acquires and releases the metadata lock over a fixed set of
// clouds. Its methods do not race, but concurrent acquisitions through
// one Manager are NOT mutually exclusive: a round counts every flag
// file of its own device as held, so a second Acquire wins while the
// first lock is held. The caller must serialize its acquisitions
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
	// reported failure). Each name is tagged with the generation of the
	// round that recorded it, or of the hold that refreshed it, and with
	// deleting while its delete is in flight. Withdraw and release delete
	// these by name, those of their own round's generation only: a
	// release that runs beside the next hold's acquisition never deletes
	// the flags of the later hold, and that acquisition never deletes
	// those of the hold still to be released.
	own map[string]map[string]uint64
	// gen is the generation of the latest round.
	gen uint64
	// preferred names the clouds whose held verdicts won the last round,
	// and quorumTime is how long that round took to win them; preferred
	// is nil after a lost round, and the next round asks every admitted
	// cloud.
	preferred  []string
	quorumTime time.Duration
}

// round is one acquisition round: a chain per admitted cloud, flag
// upload then list, on a context of the round's own. Chain j runs on
// clouds[j] once tryOnce asks it to (ask[j] closed); it hands tryOnce
// its verdict on answers the moment it has one and then waits for
// decided, closed once tryOnce has read enough verdicts to decide. A
// chain never asked ends at decided without a request. From then on
// won marks a won round's quorum, the chains whose held verdicts won it
// (nil for a lost round), and every other chain of a won round sheds
// its cloud's flags before it ends.
type round struct {
	gen     uint64
	cancel  context.CancelFunc
	clouds  []cloud.Interface
	ask     []chan struct{}
	chains  *cloud.Fanout[struct{}]
	answers chan verdict
	decided chan struct{}
	won     []bool
}

// verdict is chain j's answer: whether its cloud was held.
type verdict struct {
	j    int
	held bool
}

// join waits for the round's chains until ctx ends, then cancels the
// ones still running, so a cloud that hangs a request cannot hold a
// refresh past its deadline.
func (r *round) join(ctx context.Context) {
	_, _ = r.chains.Wait(ctx)
	r.cancel()
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
		rng:       rand.New(rand.NewSource(deviceSeed(cfg.Device))),
		firstSeen: make(map[string]map[string]time.Time),
		own:       make(map[string]map[string]uint64),
	}
}

// deviceSeed seeds a device's backoff jitter from its name, so devices
// contending for the lock back off on different schedules and a run
// replays the same ones.
func deviceSeed(device string) int64 {
	var seed int64
	for _, b := range []byte(device) {
		seed = seed*131 + int64(b)
	}
	return seed + 1
}

// Quorum returns the number of clouds whose lock must be won: a
// strict majority of all configured clouds (cloud.Quorum).
func (m *Manager) Quorum() int { return cloud.Quorum(len(m.clouds)) }

// lockFileName generates a fresh, unique lock file name for this
// device. The embedded stamp is this device's local time plus a
// counter; it is never compared across devices.
func (m *Manager) lockFileName() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counter++
	return fmt.Sprintf("lock_%s_%d.%d", m.cfg.Device, m.cfg.Clock.Now().UnixNano(), m.counter)
}

// flagDevice parses the device out of a lock flag name,
// "lock_<device>_<nanos>.<counter>". It reads from the right: the stamp
// holds no '_', a device name may.
func flagDevice(name string) (string, bool) {
	rest, ok := strings.CutPrefix(name, "lock_")
	i := strings.LastIndexByte(rest, '_')
	if !ok || i < 0 {
		return "", false
	}
	return rest[:i], true
}

// ownedBy reports whether the lock file name belongs to device — that
// device exactly: device "a" does not own "a_b"'s flags.
func ownedBy(name, device string) bool {
	d, ok := flagDevice(name)
	return ok && d == device
}

// isLockFile reports whether the entry looks like a lock flag file.
func isLockFile(e cloud.Entry) bool {
	return !e.IsDir && strings.HasPrefix(e.Name, "lock_")
}

// Acquire runs the acquisition protocol until it wins a quorum or the
// context ends. On success the
// returned Lock is being refreshed in the background; the caller must
// Release it. The winning round's stragglers run on a child of ctx
// after Acquire returns: a caller that cancels it before Release may
// leave a flag that landed unrecorded, which the next acquisition's
// List finds and other devices break after Expiry.
func (m *Manager) Acquire(ctx context.Context) (*Lock, error) {
	backoff := backoffBase
	var first time.Time // the acquisition's first flag upload
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("qlock: acquire: %w", err)
		}
		m.cfg.Obs.Counter("qlock.acquire.attempts").Inc()
		name := m.lockFileName()
		admitted := m.admitted()
		if first.IsZero() && len(admitted) >= m.Quorum() {
			first = m.cfg.Clock.Now()
		}
		r, won := m.tryOnce(ctx, name, admitted)
		if won {
			m.cfg.Obs.Counter("qlock.acquire.won").Inc()
			m.cfg.Obs.Histogram("qlock.acquire_ms").Observe(float64(m.cfg.Clock.Now().Sub(first)) / float64(time.Millisecond))
			l := &Lock{mgr: m, round: r, valid: true, stopRefresh: make(chan struct{})}
			l.name = name
			l.refreshDone.Add(1)
			go l.refreshLoop()
			return l, nil
		}
		// Withdraw (delete all own lock files, including this
		// attempt's) and back off for a random time (paper §5.2). The
		// withdraw does not inherit the caller's cancellation: a
		// cancelled acquisition is the likeliest to withdraw, and a flag
		// it leaves makes every other device wait out Expiry.
		m.cfg.Obs.Counter("qlock.backoffs").Inc()
		wctx, cancel := vclock.WithTimeout(m.cfg.Clock, context.WithoutCancel(ctx), detachedTimeout)
		m.clear(wctx, r)
		cancel()
		m.sleepJittered(ctx, backoff)
		backoff = min(2*backoff, backoffMax)
	}
}

// admits reports whether the health gate (if any) lets the protocol
// address the named cloud right now.
func (m *Manager) admits(name string) bool {
	return m.cfg.Health == nil || m.cfg.Health.Admits(name)
}

// admitted returns the clouds the health gate lets the protocol
// address right now. A cloud left out counts exactly like one whose
// upload failed: it contributes nothing to the quorum.
func (m *Manager) admitted() []cloud.Interface {
	var ok []cloud.Interface
	for _, c := range m.clouds {
		if m.admits(c.Name()) {
			ok = append(ok, c)
		}
	}
	return ok
}

// contactOrder returns the admitted clouds in the order a round asks
// them — the clouds that won the previous round first, then the others
// in configuration order — how many it asks at once, and how long it
// waits for them before it widens. After a lost round, or before any,
// it asks every admitted cloud at once.
func (m *Manager) contactOrder(admitted []cloud.Interface) (order []cloud.Interface, first int, wait time.Duration) {
	m.mu.Lock()
	preferred, quorumTime := m.preferred, m.quorumTime
	m.mu.Unlock()
	if preferred == nil {
		return admitted, len(admitted), 0
	}
	for _, name := range preferred {
		for _, c := range admitted {
			if c.Name() == name {
				order = append(order, c)
			}
		}
	}
	for _, c := range admitted {
		if !slices.Contains(preferred, c.Name()) {
			order = append(order, c)
		}
	}
	return order, min(m.Quorum(), len(order)), max(widenFactor*quorumTime, widenFloor)
}

// tryOnce is one quorum round over the admitted clouds: one chain per
// cloud asked, flag upload then list, decided at the quorum (package
// doc). A round after a won one asks only the Quorum() clouds that won
// it, and one more cloud for each of them that answers "not held" or
// fails, and for each still silent after the wait contactOrder sets
// (qlock.widened counts these); any other round asks every admitted
// cloud. It returns the round, whose chains may still be running, and
// whether it was won.
func (m *Manager) tryOnce(ctx context.Context, name string, admitted []cloud.Interface) (*round, bool) {
	m.cfg.Obs.Counter("qlock.rounds").Inc()
	m.cfg.Obs.Gauge("qlock.admitted_clouds").Set(float64(len(admitted)))
	if len(admitted) < len(m.clouds) {
		m.cfg.Obs.Counter("qlock.degraded_rounds").Inc()
	}
	if len(admitted) < m.Quorum() {
		// Not enough live clouds to possibly win: the round is lost
		// before any request goes out. Observable so operators can
		// tell "lock contended" from "too many providers down".
		m.cfg.Obs.Counter("qlock.quorum_blocked").Inc()
		admitted = nil
	}
	order, first, wait := m.contactOrder(admitted)
	ctx, cancel := context.WithCancel(ctx)
	r := &round{cancel: cancel, clouds: order, ask: make([]chan struct{}, len(order)),
		answers: make(chan verdict, len(order)), decided: make(chan struct{})}
	for j := range r.ask {
		r.ask[j] = make(chan struct{})
	}
	m.mu.Lock()
	m.gen++
	r.gen = m.gen
	m.mu.Unlock()
	r.chains = cloud.Each(ctx, len(order), func(ctx context.Context, j int) struct{} {
		if !r.asked(j) {
			return struct{}{}
		}
		m.chain(ctx, r, j, name)
		return struct{}{}
	})
	began := m.cfg.Clock.Now()
	won, held, asked, out := make([]bool, len(order)), 0, 0, 0
	ask := func(n int) {
		for ; n > 0 && asked < len(order); n-- {
			close(r.ask[asked])
			asked, out = asked+1, out+1
		}
	}
	ask(first)
	var late <-chan time.Time
	if asked < len(order) {
		late = m.cfg.Clock.After(wait)
	}
	for held < m.Quorum() && held+out+len(order)-asked >= m.Quorum() {
		select {
		case v := <-r.answers:
			out--
			if v.held {
				won[v.j] = true
				held++
			} else {
				ask(1)
			}
		case <-late:
			late = nil
			ask(out)
		}
	}
	m.cfg.Obs.Counter("qlock.widened").Add(int64(asked - first))
	m.mu.Lock()
	m.preferred = nil
	if held >= m.Quorum() {
		r.won = won
		for j, ok := range won {
			if ok {
				m.preferred = append(m.preferred, order[j].Name())
			}
		}
		m.quorumTime = m.cfg.Clock.Now().Sub(began)
	}
	m.mu.Unlock()
	close(r.decided)
	return r, r.won != nil
}

// asked waits until tryOnce asks chain j or decides, and reports
// whether j was asked.
func (r *round) asked(j int) bool {
	select {
	case <-r.ask[j]:
		return true
	case <-r.decided:
		select {
		case <-r.ask[j]:
			return true
		default:
			return false
		}
	}
}

// chain is round r's chain j: the flag upload, then the list, the
// verdict, and once the round is decided, the shed of a won round's
// flags outside its quorum.
func (m *Manager) chain(ctx context.Context, r *round, j int, name string) {
	c := r.clouds[j]
	held := c.Upload(ctx, cloud.JoinPath(DefaultLockDir, name), nil) == nil
	if held {
		m.noteOwn(c.Name(), name, r.gen)
		held = m.checkCloud(ctx, c, r.gen)
	}
	r.answers <- verdict{j, held}
	<-r.decided
	if r.won != nil && !r.won[j] {
		m.cfg.Obs.Counter("qlock.shed_flags").Add(int64(m.deleteOwn(ctx, c, r.gen)))
	}
}

// checkCloud lists the lock directory on c and reports whether this
// device holds that cloud's lock: every (non-obsolete) lock file
// present belongs to this device. Obsolete foreign lock files —
// first seen by this manager more than Expiry ago — are broken
// (deleted) and ignored. gen is the listing round's generation.
func (m *Manager) checkCloud(ctx context.Context, c cloud.Interface, gen uint64) bool {
	entries, err := c.List(ctx, DefaultLockDir)
	if err != nil {
		return false
	}
	now := m.cfg.Clock.Now()
	live := m.trackFirstSeen(c.Name(), entries, now)
	ok := true
	for _, name := range live {
		if ownedBy(name, m.cfg.Device) {
			m.noteSeen(c.Name(), name, gen)
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

// noteOwn records that a flag file of this device exists on the cloud,
// tagged with generation gen. A name keeps the latest generation that
// recorded it.
func (m *Manager) noteOwn(cloudName, lockName string, gen uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteLocked(cloudName, lockName, gen)
}

// noteSeen records an own-device flag file that round gen's List showed
// and that is not on record yet — a crashed incarnation's leftover, or
// an upload that landed though it reported failure — unless a later
// round has begun since: a straggler's List may show the flag of a
// later round before that round's chain recorded it, and the
// straggler's older tag would let this round's release delete it. A
// name on record keeps its tag: an earlier hold's flag stays that
// hold's release's to delete, and one being deleted is not deleted
// twice.
func (m *Manager) noteSeen(cloudName, lockName string, gen uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, known := m.own[cloudName][lockName]; gen == m.gen && !known {
		m.noteLocked(cloudName, lockName, gen)
	}
}

func (m *Manager) noteLocked(cloudName, lockName string, gen uint64) {
	names := m.own[cloudName]
	if names == nil {
		names = make(map[string]uint64)
		m.own[cloudName] = names
	}
	if gen > names[lockName] {
		names[lockName] = gen
	}
}

// forgetOwn records that the flag file is gone from the cloud.
func (m *Manager) forgetOwn(cloudName, lockName string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.own[cloudName], lockName)
}

// deleting tags a recorded flag whose delete is in flight: no
// generation reaches it, so no clear takes the flag twice.
const deleting = math.MaxUint64

// takeOwn returns the flag files of this device recorded on the cloud
// with generation gen, and tags them deleting; deleteOwn
// forgets each once its delete has returned. Each delete is tried
// once: one that fails leaves a file the next acquisition's List shows
// again (and other devices break after Expiry), so nothing is retried
// blindly against a cloud that stays down.
func (m *Manager) takeOwn(cloudName string, gen uint64) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name, g := range m.own[cloudName] {
		if g == gen {
			names = append(names, name)
			m.own[cloudName][name] = deleting
		}
	}
	return names
}

// clear is withdraw and release: it deletes, by name, this device's
// flag files recorded with round r's generation — the round's or
// hold's file wherever its upload succeeded and no shed took it,
// own-device names an acquisition List showed, and old names a refresh
// could not delete. On each cloud it deletes once r's chain there has
// ended, so a straggler that hangs holds up no other cloud's deletes,
// and each delete runs on a context of its own (deleteOwn): clear
// waits until ctx ends at most, then cancels the stragglers, and what
// they landed is still deleted as they end. No List is needed — every
// file this manager created is on its record, and one it does not know
// of is found by the next acquisition's List — and a cloud holding
// nothing of ours, a shed one included, gets no request at all.
func (m *Manager) clear(ctx context.Context, r *round) {
	deletes := cloud.Each(ctx, len(m.clouds), func(ctx context.Context, i int) struct{} {
		c := m.clouds[i]
		for j, rc := range r.clouds {
			if rc.Name() == c.Name() {
				<-r.chains.Ended(j)
			}
		}
		m.deleteOwn(ctx, c, r.gen)
		return struct{}{}
	})
	_, _ = deletes.Wait(ctx)
	r.cancel()
}

// deleteOwn deletes from c, by name, this device's flag files recorded
// there with generation gen, on a context detached from ctx and
// bounded by detachedTimeout, and returns how many it sent: what a
// cancelled chain landed is still deleted.
func (m *Manager) deleteOwn(ctx context.Context, c cloud.Interface, gen uint64) int {
	names := m.takeOwn(c.Name(), gen)
	dctx, cancel := vclock.WithTimeout(m.cfg.Clock, context.WithoutCancel(ctx), detachedTimeout)
	defer cancel()
	for _, name := range names {
		_ = c.Delete(dctx, cloud.JoinPath(DefaultLockDir, name))
		m.forgetOwn(c.Name(), name)
	}
	return len(names)
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
	round       *round // the winning round; its generation tags the hold's flags
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

// refreshLoop renews the lock files every Expiry/4 so observers never
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
		case <-m.cfg.Clock.After(m.cfg.Expiry / 4):
		}
		ctx, cancel := vclock.WithTimeout(m.cfg.Clock, context.Background(), detachedTimeout)
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
// legitimate holder off. The winning round's stragglers are joined
// first, so none lands the old name after the renewal deleted it.
func (l *Lock) refreshOnce(ctx context.Context) {
	m := l.mgr
	l.round.join(ctx)
	newName := m.lockFileName()
	l.mu.Lock()
	oldName := l.name
	l.mu.Unlock()

	newPath := cloud.JoinPath(DefaultLockDir, newName)
	oldPath := cloud.JoinPath(DefaultLockDir, oldName)
	// A cloud left out cannot renew; it simply does not count toward the
	// refresh quorum, same as a failed upload.
	admitted := m.admitted()
	renewed, _ := cloud.Each(ctx, len(admitted), func(ctx context.Context, i int) bool {
		c := admitted[i]
		if err := c.Upload(ctx, newPath, nil); err != nil {
			return false
		}
		m.noteOwn(c.Name(), newName, l.round.gen)
		// An old name that could not be deleted stays on record and
		// goes with the release.
		if err := c.Delete(ctx, oldPath); err == nil || errors.Is(err, cloud.ErrNotFound) {
			m.forgetOwn(c.Name(), oldName)
		}
		// Renewed on this cloud (read-after-write: the new flag file is
		// visible to every later List).
		return true
	}).Wait(context.WithoutCancel(ctx))
	held := 0
	for _, ok := range renewed {
		if ok {
			held++
		}
	}

	l.mu.Lock()
	l.name = newName
	m.cfg.Obs.Counter("qlock.refreshes").Inc()
	if held < m.Quorum() {
		m.cfg.Obs.Counter("qlock.refresh_lost").Inc()
		l.valid = false
	}
	l.mu.Unlock()
}

// Release stops refreshing and deletes this device's lock files
// recorded with the hold's generation — those of the winning quorum,
// unless a refresh re-flagged the shed clouds — waiting for the
// winning round's stragglers, their shed included, until ctx ends
// (clear): a Release still running after its caller moved on to a new
// hold leaves that hold's files alone. It is idempotent.
func (l *Lock) Release(ctx context.Context) error {
	l.stopOnce.Do(func() {
		close(l.stopRefresh)
		l.mgr.cfg.Obs.Counter("qlock.released").Inc()
	})
	l.mu.Lock()
	l.valid = false
	l.mu.Unlock()
	l.refreshDone.Wait()
	l.mgr.clear(ctx, l.round)
	return nil
}
