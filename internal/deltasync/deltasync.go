// Package deltasync stores UniDrive's metadata in the multi-cloud as
// a base file plus a log-structured delta file (paper §5.2,
// "Delta-sync for Efficiency", following HDFS's image/edits design).
//
// The gross metadata (SyncFolderImage) grows with the number of files
// and would be expensive to re-upload on every commit. Instead:
//
//   - base holds a full encrypted snapshot of the image;
//   - delta holds an encrypted log of commit records appended since
//     the base was written, its older part frozen into immutable
//     delta.v<version> chunk objects;
//   - version holds a tiny plaintext stamp {device, version, commit}
//     that devices poll to detect pending cloud updates without
//     downloading any metadata; commit is the ID of the record that
//     made the version (a digest chained over the history), so two
//     commits at one version — one that failed to reach a quorum and
//     its retry — are told apart.
//
// When the delta grows past the threshold λ — a fraction of the base
// size with a floor (the paper suggests 0.25·base or 10 KB) — the
// committing device merges it into a fresh base and clears the delta.
//
// A commit writes a quorum, not every cloud. It happens under the
// quorum lock, takes the stamp poll's answers in the order they land,
// starts each cloud's write the moment that cloud's answer does, writes
// the first Quorum() clouds to answer cleanly — one more for each write
// that fails — and returns once a quorum accepted and no write it
// started is in flight. A cloud the commit writes that stands behind
// it is caught up in the same write, by its stamp: on the cursor, by
// the records it lacks; anywhere else, from the lineage's base. The
// clouds left out stay behind until a later commit reaches them.
//
// Why a quorum is enough. Any two sets of Quorum(n) clouds share a
// cloud (cloud.Quorum), so every read quorum intersects the write
// quorum of the last commit: a refresh, which decides on the first
// quorum of stamps to answer, hears at least one cloud that holds the
// newest commit, and reads it from such a cloud. This needs that the
// newest commit's stamps are not overwritten behind the reader's back,
// and no write outlives the hold that made it: a write is started only
// under the lock, and Commit returns — and the lock is released — only
// once every write it started has been answered, so the next holder's
// commit cannot be hidden by a late write of this one (the same
// argument as qlock's for its flags, which the next holder meets on
// the cloud the two quorums share). A commit that failed to reach a
// quorum leaves its stamp on the clouds it did reach, and its retry
// takes the same version under another ID: a reader whose answers name
// both reads on until one holds a quorum of answers (poll.decide), and
// a cursor's overlap check compares IDs, so a lost commit is never kept
// beneath a later one.
//
// What this gives up against the paper's "replicated to all clouds":
// between catch-ups the newest version lives on a quorum of clouds,
// not on every one. The metadata is then readable while a majority of
// the clouds is — the lock's own availability envelope, since no
// commit can be made without a majority either — but a reader no
// longer finds the newest version on any single cloud it reaches, and
// losing the stores of a majority at once loses the newest commits
// that only they held (DESIGN.md §7).
//
// Every device that reads the same base and records derives the same
// image, because there is one record chain (chain.go): reads extend
// it (this file), a commit plans its own record onto it and writes
// the plan (commit.go).
package deltasync

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"unidrive/internal/cloud"
	"unidrive/internal/meta"
	"unidrive/internal/metacrypt"
	"unidrive/internal/obs"
)

// Remote metadata file names under Dir.
const (
	baseFile    = "base"
	deltaFile   = "delta"
	versionFile = "version"
)

// chunkPrefix names frozen delta chunks: "delta.v%012d", where the
// number is the version of the chunk's first record. Zero-padding
// makes lexicographic order equal version order.
const chunkPrefix = "delta.v"

func chunkName(firstVersion int64) string {
	return fmt.Sprintf("%s%012d", chunkPrefix, firstVersion)
}

// parseChunkName extracts the first-record version from a chunk
// object name; ok is false for non-chunk names, a version that does
// not fit an int64 among them.
func parseChunkName(name string) (int64, bool) {
	digits, ok := strings.CutPrefix(name, chunkPrefix)
	v, err := strconv.ParseUint(digits, 10, 63) // no sign, fits an int64
	if !ok || err != nil {
		return 0, false
	}
	return int64(v), true
}

// DefaultDir is the metadata directory on every cloud.
const DefaultDir = ".unidrive/meta"

// Lambda returns the merge threshold λ for a base of baseLen bytes: a
// delta log larger than this is folded into a fresh base (the paper
// suggests 0.25·base or 10 KB). The client's local checkpoint applies
// the same rule to its state file.
func Lambda(baseLen int) int { return max(baseLen/4, 10*1024) }

// maxTailBytes caps the active delta tail: when the sealed tail would
// exceed it, the tail is frozen into an immutable chunk object
// (delta.v<firstVersion>) uploaded once, and the tail restarts empty.
// Commits therefore re-encode and re-upload only the records since the
// last freeze — O(recent changes) — instead of the whole chain since
// the last base rotation, which grows with folder size (a single
// post-populate relocation commit can hold thousands of records).
const maxTailBytes = 64 * 1024

// ErrNoQuorum reports that a commit could not reach a majority of
// clouds.
var ErrNoQuorum = errors.New("deltasync: commit did not reach a quorum of clouds")

// Config parametrizes the store.
type Config struct {
	// Device is this device's name, stamped into commits.
	Device string
	// Obs receives store metrics; nil disables instrumentation.
	Obs *obs.Registry
}

// Store replicates metadata to a set of clouds. Safe for concurrent
// use, though commits must be serialized by the quorum lock.
type Store struct {
	clouds []cloud.Interface
	cipher *metacrypt.Cipher
	cfg    Config
	// lambda is Lambda; a test that must force or suppress a rotation
	// replaces it.
	lambda func(baseLen int) int

	mu sync.Mutex
	// chain is the cursor: the cached image and the records since the
	// base. Replaced, never written into.
	chain chain
	// baseLen and chunkBytes are the sealed sizes λ compares: the base
	// as last fetched or rotated (the full image is encoded only when a
	// commit writes it), and the records frozen into chunks.
	baseLen    int
	chunkBytes int
	// poll is the last stamp poll, nil when a commit has rewritten the
	// version files since: only a poll run after the last commit may
	// tell Commit which clouds are up to date.
	poll *poll
	// writing is closed once the last Commit's straggling writes have
	// ended (writeQuorum); nil before any straggled.
	writing chan struct{}
}

// New creates a metadata store over the given clouds. cipher encrypts
// base and delta files; it must be the same on every device.
func New(clouds []cloud.Interface, cipher *metacrypt.Cipher, cfg Config) *Store {
	if len(clouds) == 0 {
		panic("deltasync: no clouds")
	}
	if cfg.Device == "" {
		panic("deltasync: empty device name")
	}
	return &Store{
		clouds: clouds,
		cipher: cipher,
		cfg:    cfg,
		lambda: Lambda,
		chain:  startChain(meta.NewImage(), 0),
	}
}

// Quorum returns the majority count for commits (cloud.Quorum).
func (s *Store) Quorum() int { return cloud.Quorum(len(s.clouds)) }

func (s *Store) path(name string) string { return cloud.JoinPath(DefaultDir, name) }

// Stamp returns the last known committed version stamp.
func (s *Store) Stamp() meta.VersionStamp { return s.CachedShared().Stamp() }

// CachedShared returns the last fetched/committed image without
// copying. The returned image is shared and MUST be treated as
// read-only: the store replaces it wholesale on every state change
// and never mutates it in place, so a held reference stays internally
// consistent. The event-driven sync loop uses this on its per-pass
// hot path, where a deep copy would reintroduce an O(folder) cost per
// pass.
func (s *Store) CachedShared() *meta.Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chain.img
}

// cloudStamp is one cloud's answer to a stamp poll.
type cloudStamp struct {
	// stamp is the decoded version file, valid when found is set.
	stamp meta.VersionStamp
	found bool
	// reachable: the cloud answered — with a stamp, with "no such file"
	// (an empty cloud: neither found nor err), or with bytes that do not
	// decode (err set).
	reachable bool
	err       error
}

// clean reports an answer a decision can rest on: a stamp, or "no such
// file".
func (c cloudStamp) clean() bool { return c.reachable && c.err == nil }

// poll is one stamp poll — the one place the store asks the clouds "who
// committed last": every cloud's version file requested at once, a
// fan-out (cloud.Each) whose answers land as they come. Refresh decides
// from the first quorum of clean answers (decide); the Commit that
// follows under the same lock hold takes the answers in the same order
// (take) and writes each cloud as its answer lands; a fetch on a device
// that has not observed every cloud yet waits for the rest (JoinPoll).
// The requests run under the context of the caller that started the
// poll.
type poll struct {
	*cloud.Fanout[stampRead]
	decided atomic.Bool
	// spent is set by the Commit that used the poll: its answers no
	// longer describe the clouds, though JoinPoll still waits for them.
	spent atomic.Bool

	// mu guards the record below, and landed signals each addition.
	mu     sync.Mutex
	landed *sync.Cond
	// seen holds the answers taken from the fan-out so far and arrived
	// their clouds, in the order the answers landed; over is set once
	// every answer has been taken, reading while a take is in Next.
	seen    []cloudStamp
	arrived []int
	over    bool
	reading bool
}

// startPoll sends the version-file requests and records the poll for
// the Commit that follows, once the last Commit's straggling writes have
// ended: a cloud half written would answer with the stamp it had before,
// and the next commit would catch it up again. An answer that lands
// after the poll decided counts under deltasync.poll.late_answers.
func (s *Store) startPoll(ctx context.Context) *poll {
	s.JoinWrites()
	p := &poll{seen: make([]cloudStamp, len(s.clouds))}
	p.landed = sync.NewCond(&p.mu)
	late := s.cfg.Obs.Counter("deltasync.poll.late_answers")
	path := s.path(versionFile)
	p.Fanout = cloud.Each(ctx, len(s.clouds), func(ctx context.Context, i int) stampRead {
		data, err := s.clouds[i].Download(ctx, path)
		if p.decided.Load() {
			late.Inc()
		}
		return stampRead{data, err}
	})
	s.mu.Lock()
	s.poll = p
	s.mu.Unlock()
	return p
}

// take returns the k-th answer of the poll to land, counting from 0,
// blocking until it lands; ok is false when fewer than k+1 clouds
// exist. Every reader of the poll sees the answers in the one order
// they landed in: Refresh's decision, then the Commit that follows.
// One reader at a time takes the next answer from the fan-out, without
// the lock; any other waits for it to record what it took.
func (p *poll) take(k int) (i int, answer cloudStamp, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.arrived) <= k && !p.over {
		if p.reading {
			p.landed.Wait()
			continue
		}
		p.reading = true
		p.mu.Unlock()
		i, read, ok := p.Next()
		p.mu.Lock()
		p.reading = false
		if ok {
			p.seen[i] = read.answer()
			p.arrived = append(p.arrived, i)
		}
		p.over = !ok
		p.landed.Broadcast()
	}
	if k >= len(p.arrived) {
		return 0, cloudStamp{}, false
	}
	i = p.arrived[k]
	return i, p.seen[i], true
}

// stampRead is what one cloud's version-file request returned. The
// poll's requests return it undecoded, and the poll's reader decodes
// it (answer): a decode on each request's short-lived goroutine grew
// that goroutine's stack, a copy per cloud per poll.
type stampRead struct {
	data []byte
	err  error
}

// answer is one cloud's answer to a stamp poll.
func (r stampRead) answer() cloudStamp {
	switch {
	case errors.Is(r.err, cloud.ErrNotFound):
		return cloudStamp{reachable: true}
	case r.err != nil:
		return cloudStamp{err: r.err}
	}
	stamp, err := meta.DecodeVersionStamp(r.data)
	return cloudStamp{stamp: stamp, found: err == nil, reachable: true, err: err}
}

// decide waits for the first quorum of clean answers — any quorum holds
// the newest committed stamp, since a commit succeeds on a majority —
// or, when fewer than a quorum can answer cleanly, for every answer,
// and returns them; a cloud whose answer it did not wait for reads as
// unreachable. Where the answers at the newest version name different
// commits — one a commit that failed to reach a quorum, one its retry
// — it reads on until one of them holds a quorum of answers or every
// answer is in (settled). n is the number of clouds polled. Called once
// per poll.
func (p *poll) decide(n, quorum int) []cloudStamp {
	seen := make([]cloudStamp, n)
	for k, clean := 0, 0; clean < quorum || !settled(seen, quorum); k++ {
		i, answer, ok := p.take(k)
		if !ok {
			break
		}
		seen[i] = answer
		if answer.clean() {
			clean++
		}
	}
	p.decided.Store(true)
	return seen
}

// top returns the newest commit the answers name: the highest version,
// and at that version the commit most answers name, ties in cloud
// order. votes counts those answers and rivals the answers at that
// version naming another commit. ok is false when no answer holds a
// stamp.
func top(seen []cloudStamp) (stamp meta.VersionStamp, votes, rivals int, ok bool) {
	count := func(st meta.VersionStamp) (n int) {
		for _, c := range seen {
			if c.found && c.stamp == st {
				n++
			}
		}
		return n
	}
	for _, c := range seen { // in cloud order: the first of equals wins
		if !c.found {
			continue
		}
		if n := count(c.stamp); !ok || c.stamp.Version > stamp.Version || c.stamp.Version == stamp.Version && n > votes {
			stamp, votes, ok = c.stamp, n, true
		}
	}
	for _, c := range seen {
		if c.found && c.stamp.Version == stamp.Version && c.stamp != stamp {
			rivals++
		}
	}
	return stamp, votes, rivals, ok
}

// settled reports whether the answers agree on the newest commit: no
// rival at its version, or a quorum of answers for it.
func settled(seen []cloudStamp, quorum int) bool {
	_, votes, rivals, _ := top(seen)
	return rivals == 0 || votes >= quorum
}

// JoinPoll waits until every cloud has answered the last stamp poll,
// Refresh having decided on the first quorum of answers: each request
// has then finished, and been observed by whoever watches the clouds'
// calls. It returns at once when no answer is outstanding.
func (s *Store) JoinPoll(ctx context.Context) {
	s.mu.Lock()
	p := s.poll
	s.mu.Unlock()
	if p == nil {
		return
	}
	select {
	case <-p.Done():
		return
	default:
	}
	s.cfg.Obs.Counter("deltasync.poll.joined").Inc()
	_, _ = p.Wait(ctx)
}

// checkRemote reports whether the stamp poll's answers name a newer
// commit than the cached one, or another commit at its version — the
// paper's cheap cloud-update check using only the tiny version file —
// and hands back the answers it decided on.
func (s *Store) checkRemote(ctx context.Context) (pending bool, seen []cloudStamp, err error) {
	known := s.Stamp()
	seen = s.startPoll(ctx).decide(len(s.clouds), s.Quorum())
	var anyReachable bool
	var lastErr error
	for _, c := range seen {
		if c.err != nil {
			lastErr = c.err
		}
		anyReachable = anyReachable || c.reachable
	}
	if newest, _, _, ok := top(seen); ok && (newest.Version > known.Version ||
		newest.Version == known.Version && newest != known) {
		return true, seen, nil
	}
	if !anyReachable {
		return false, seen, fmt.Errorf("deltasync: no cloud reachable for version check: %w", lastErr)
	}
	return false, seen, nil
}

// errUnreachable marks a read that failed because the cloud did not
// serve the object, as opposed to serving one that does not decode.
var errUnreachable = errors.New("cloud did not answer")

// chunkStarts lists c's chunk objects by the version of their first
// record, ascending — the store's one listing, serving the reader's
// gap backfill and a rotation's delete.
func (s *Store) chunkStarts(ctx context.Context, c cloud.Interface) ([]int64, error) {
	entries, err := c.List(ctx, DefaultDir)
	if err != nil && !errors.Is(err, cloud.ErrNotFound) {
		return nil, fmt.Errorf("deltasync: listing chunks on %s: %w: %w", c.Name(), errUnreachable, err)
	}
	var starts []int64
	for _, e := range entries {
		if v, ok := parseChunkName(e.Name); ok {
			starts = append(starts, v)
		}
	}
	slices.Sort(starts)
	return starts, nil
}

// readRecords downloads and decodes one record object of c — the tail
// or a chunk — and reports its sealed size. A missing object holds no
// records: no delta yet, or a chunk deleted between the listing and the
// read by a racing rotation.
func (s *Store) readRecords(ctx context.Context, c cloud.Interface, name string) ([]Record, int, error) {
	blob, err := c.Download(ctx, s.path(name))
	switch {
	case errors.Is(err, cloud.ErrNotFound):
		return nil, 0, nil
	case err != nil:
		return nil, 0, fmt.Errorf("deltasync: fetching %s from %s: %w: %w", name, c.Name(), errUnreachable, err)
	}
	records, err := s.decodeDelta(blob)
	if err != nil {
		return nil, 0, fmt.Errorf("deltasync: %s from %s: %w", name, c.Name(), err)
	}
	return records, len(blob), nil
}

// catchUp extends cur with what cloud c holds beyond it, moving as few
// bytes as possible: the active tail, and — only when the tail does
// not join the cursor's head, because records in between were frozen
// since — the chunks that may hold records past the head (every chunk
// starting beyond it plus the one straddling it). stamp is the version
// c advertised, 0 when unknown: a cursor already at it with no tail of
// its lineage to read — a fresh base, a rotation's own shape — has
// nothing frozen past it, and nothing is listed. It also learns where
// c's tail begins: everything before is frozen, so this device's next
// commit re-uploads only the remote tail's worth of records. froze is
// the sealed size of the chunks it read beyond cur's freeze boundary —
// what λ must count on top of the chunks cur already knew.
func (s *Store) catchUp(ctx context.Context, c cloud.Interface, cur chain, stamp int64) (next chain, froze int, err error) {
	records, _, err := s.readRecords(ctx, c, deltaFile)
	if err != nil {
		return cur, 0, err
	}
	var tailStart int64 // 0: no tail of this lineage — everything is frozen
	if tail := cur.own(records); len(tail) > 0 {
		tailStart = tail[0].Version
	}
	atStamp := tailStart == 0 && stamp > 0 && cur.head() >= stamp
	if (tailStart == 0 || tailStart > cur.head()+1) && !atStamp {
		starts, err := s.chunkStarts(ctx, c)
		if err != nil {
			return cur, 0, err
		}
		lo := 0
		for k, v := range starts {
			if v <= cur.head()+1 {
				lo = k
			}
		}
		boundary := cur.start + int64(cur.frozen) + 1 // first version cur does not know frozen
		var chunked []Record
		for _, v := range starts[lo:] {
			recs, sealed, err := s.readRecords(ctx, c, chunkName(v))
			if err != nil {
				return cur, 0, err
			}
			if v >= boundary && len(recs) > 0 && recs[0].BaseVersion == cur.lineage {
				froze += sealed
			}
			chunked = append(chunked, recs...)
		}
		records = append(chunked, records...)
	}
	next, err = cur.extend(records)
	if err != nil {
		return cur, 0, fmt.Errorf("%s: %w", c.Name(), err)
	}
	return next.frozenBefore(tailStart), froze, nil
}

// cloudRead is one cloud's whole lineage as a cursor, with the sealed
// sizes λ compares: the base, and the chunks.
type cloudRead struct {
	chain               chain
	baseLen, chunkBytes int
}

// readCloud reads one cloud's whole lineage: its base, a cursor
// started there, and the catch-up every reader runs. stamp is the
// version c advertised, 0 when unknown.
func (s *Store) readCloud(ctx context.Context, c cloud.Interface, stamp int64) (cloudRead, error) {
	s.cfg.Obs.Counter("deltasync.refresh.full_reads").Inc()
	img := meta.NewImage()
	sealed, err := c.Download(ctx, s.path(baseFile))
	switch {
	case errors.Is(err, cloud.ErrNotFound):
		// No base yet: the lineage starts at the empty image.
	case err != nil:
		return cloudRead{}, fmt.Errorf("deltasync: fetching base from %s: %w", c.Name(), err)
	default:
		plain, err := s.cipher.Open(sealed)
		if err != nil {
			return cloudRead{}, fmt.Errorf("deltasync: decrypting base from %s: %w", c.Name(), err)
		}
		if img, err = meta.DecodeImage(plain); err != nil {
			return cloudRead{}, fmt.Errorf("deltasync: decoding base from %s: %w", c.Name(), err)
		}
	}
	next, froze, err := s.catchUp(ctx, c, startChain(img, img.Version), stamp)
	return cloudRead{chain: next, baseLen: len(sealed), chunkBytes: froze}, err
}

// adopt makes a cloud's lineage the store's cursor.
func (s *Store) adopt(r cloudRead) *meta.Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chain, s.baseLen, s.chunkBytes = r.chain, r.baseLen, r.chunkBytes
	return s.chain.img
}

// fetchNewest is Refresh's full path, taken when the cursor cannot be
// extended (a cold cache, a rotated base, a torn delta). It reads, one
// at a time, the lineage of each cloud that advertised the newest stamp
// in seen and adopts the first read that reaches it: the poll heard a
// quorum, the newest committed version sits on a quorum, so such a read
// holds it. Only when none does is every cloud read (readAll); a read
// that stops short of the newest commit is then adopted only when no
// read of that commit failed: a commit no reader can take (it does not
// decode, or names blocks without checksums) is refused, not hidden
// behind an older image.
func (s *Store) fetchNewest(ctx context.Context, seen []cloudStamp) (*meta.Image, error) {
	newest, _, _, _ := top(seen)
	var refused error
	for _, i := range newestFirst(seen) {
		if seen[i].stamp != newest {
			break
		}
		read, err := s.readCloud(ctx, s.clouds[i], newest.Version)
		if err == nil && read.chain.holds(newest) {
			return s.adopt(read), nil
		}
		if err != nil {
			refused = err
		}
	}
	read, err := s.readAll(ctx)
	switch {
	case err != nil:
		return nil, err
	case refused != nil && !read.chain.holds(newest):
		return nil, refused
	}
	return s.adopt(read), nil
}

// fetchAll reads every reachable cloud's lineage, adopts the newest
// consistent one and returns its image: the full path when no single
// read will do, or no poll told which cloud to read.
func (s *Store) fetchAll(ctx context.Context) (*meta.Image, error) {
	read, err := s.readAll(ctx)
	if err != nil {
		return nil, err
	}
	return s.adopt(read), nil
}

// readAll reads every reachable cloud's lineage and returns the newest
// consistent one.
func (s *Store) readAll(ctx context.Context) (cloudRead, error) {
	type result struct {
		read cloudRead
		err  error
	}
	results, _ := cloud.Each(ctx, len(s.clouds), func(ctx context.Context, i int) result {
		read, err := s.readCloud(ctx, s.clouds[i], 0)
		return result{read, err}
	}).Wait(context.WithoutCancel(ctx))
	best := -1
	var lastErr error
	for i, r := range results {
		if r.err != nil {
			lastErr = r.err
			continue
		}
		if best < 0 || r.read.chain.head() > results[best].read.chain.head() {
			best = i
		}
	}
	if best < 0 {
		return cloudRead{}, fmt.Errorf("deltasync: no cloud yielded metadata: %w", lastErr)
	}
	return results[best].read, nil
}

// Refresh brings the cache up to date with the clouds while moving as
// few bytes as possible — the remote half of the event-driven sync
// pipeline. It first polls the tiny version stamps — once, deciding on
// the first quorum of answers: the same answers rank the clouds for the
// catch-up, and with the rest, which run on, serve a Commit that
// follows under the same lock hold. When nothing is pending the cached
// image is returned untouched. When a newer commit is advertised it
// attempts an incremental catch-up of the cursor (no base moves), and
// only when that fails — the base rotated, or the delta does not
// decode — falls back to reading a whole lineage, one cloud's
// (fetchNewest).
//
// The returned image is shared (see CachedShared) and must be treated
// as read-only.
func (s *Store) Refresh(ctx context.Context) (*meta.Image, error) {
	pending, seen, err := s.checkRemote(ctx)
	if err != nil {
		return nil, err
	}
	if !pending {
		s.cfg.Obs.Counter("deltasync.refresh.noop").Inc()
		return s.CachedShared(), nil
	}
	if img, ok := s.refreshIncremental(ctx, seen); ok {
		s.cfg.Obs.Counter("deltasync.refresh.incremental").Inc()
		return img, nil
	}
	s.cfg.Obs.Counter("deltasync.refresh.full").Inc()
	return s.fetchNewest(ctx, seen)
}

// newestFirst returns the clouds that answered with a stamp: those
// naming the newest commit (top) first, then the older ones, newest
// stamp first, ties in cloud order. A cloud naming a rival of the
// newest commit at its version is left out: what it holds is a commit
// that lost.
func newestFirst(seen []cloudStamp) []int {
	newest, _, _, _ := top(seen)
	var order []int
	for i, c := range seen {
		if c.found && (c.stamp == newest || c.stamp.Version < newest.Version) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return seen[order[a]].stamp.Version > seen[order[b]].stamp.Version })
	return order
}

// refreshIncremental catches the cursor up from the cloud advertising
// the newest stamp, moving on to the next one only when that cloud
// stops answering. seen is the stamp poll that found the update
// pending. A catch-up counts only when it reaches the commit that cloud
// advertised: a stamp is written last, so the cloud holds every record
// up to it, and a cursor that stops short was fed something else — a
// rotation emptied the delta, or left a chunk of the cursor's lineage
// behind — while the commits it misses sit on a lineage it cannot read.
// That, like an answer the cursor cannot be extended with (a torn
// delta, a diverging history), is left to the full path to judge.
func (s *Store) refreshIncremental(ctx context.Context, seen []cloudStamp) (*meta.Image, bool) {
	s.mu.Lock()
	cur := s.chain
	s.mu.Unlock()
	for _, i := range newestFirst(seen) {
		next, froze, err := s.catchUp(ctx, s.clouds[i], cur, seen[i].stamp.Version)
		if errors.Is(err, errUnreachable) {
			continue
		}
		if err != nil || next.head() <= cur.head() || !next.holds(seen[i].stamp) {
			return nil, false
		}
		s.mu.Lock()
		s.chain = next
		s.chunkBytes += froze
		s.mu.Unlock()
		return next.img, true
	}
	return nil, false
}

// RecordsSince returns the committed records with versions in
// (from, to], in commit order, when the cached record chain covers
// that whole span. ok=false means the span crosses a base rotation (or
// references versions the chain does not hold). The records are shared
// with the store and must be treated as read-only.
func (s *Store) RecordsSince(from, to int64) (records []Record, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chain.since(from, to)
}

// ChangesSince returns the concatenated committed changes with
// versions in (from, to], in commit order, under the same coverage
// rule as RecordsSince; on ok=false the caller must fall back to a
// full image diff. This is how applying passes stay O(changes): the
// chain already names every path that moved between two cached
// versions.
func (s *Store) ChangesSince(from, to int64) (changes []*meta.Change, ok bool) {
	records, ok := s.RecordsSince(from, to)
	if !ok {
		return nil, false
	}
	for _, r := range records {
		changes = append(changes, r.Changes...)
	}
	return changes, true
}
