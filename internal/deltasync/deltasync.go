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
//   - version holds a tiny plaintext stamp {device, version} that
//     devices poll to detect pending cloud updates without
//     downloading any metadata.
//
// When the delta grows past the threshold λ — a fraction of the base
// size with a floor (the paper suggests 0.25·base or 10 KB) — the
// committing device merges it into a fresh base and clears the delta.
//
// All files are replicated to every cloud. Commits happen under the
// quorum lock and succeed when a majority of clouds accepted them;
// stale clouds (down during earlier commits) are detected by their
// version stamp and repaired with a full base write on the next
// commit that reaches them. A fetch picks the newest version visible
// on any reachable cloud, which under majority-commit is always the
// latest committed state.
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
	"strings"
	"sync"

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
// object name; ok is false for non-chunk names.
func parseChunkName(name string) (int64, bool) {
	if !strings.HasPrefix(name, chunkPrefix) {
		return 0, false
	}
	var v int64
	for _, c := range name[len(chunkPrefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
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
	// Dir is the metadata directory on each cloud (DefaultDir).
	Dir string
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
	// seen is what the last stamp poll read from each cloud's version
	// file (index-aligned with clouds). polled reports that a poll has
	// run since the last commit rewrote those files: only then may
	// Commit decide from seen without polling itself.
	seen   []cloudStamp
	polled bool
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
	if cfg.Dir == "" {
		cfg.Dir = DefaultDir
	}
	return &Store{
		clouds: clouds,
		cipher: cipher,
		cfg:    cfg,
		lambda: Lambda,
		chain:  startChain(meta.NewImage(), 0),
	}
}

// Quorum returns the majority count for commits.
func (s *Store) Quorum() int { return len(s.clouds)/2 + 1 }

func (s *Store) path(name string) string { return cloud.JoinPath(s.cfg.Dir, name) }

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

// upToDate reports whether the cloud is known to hold exactly the
// commit prev — the condition for appending to its delta instead of
// rewriting its base. A cloud with no version file is up to date only
// at genesis; an unreachable one never is.
func (c cloudStamp) upToDate(prev meta.VersionStamp) bool {
	if c.found {
		return c.stamp == prev
	}
	return c.reachable && c.err == nil && prev.Version == 0
}

// pollStamps reads every cloud's version file concurrently — the one
// place the store asks the clouds "who committed last" — and records
// the answers for the Commit that follows under the same lock hold.
func (s *Store) pollStamps(ctx context.Context) []cloudStamp {
	seen := make([]cloudStamp, len(s.clouds))
	var wg sync.WaitGroup
	for i, c := range s.clouds {
		wg.Add(1)
		go func(i int, c cloud.Interface) {
			defer wg.Done()
			data, err := c.Download(ctx, s.path(versionFile))
			switch {
			case errors.Is(err, cloud.ErrNotFound):
				seen[i] = cloudStamp{reachable: true}
			case err != nil:
				seen[i] = cloudStamp{err: err}
			default:
				stamp, err := meta.DecodeVersionStamp(data)
				seen[i] = cloudStamp{stamp: stamp, found: err == nil, reachable: true, err: err}
			}
		}(i, c)
	}
	wg.Wait()
	s.mu.Lock()
	s.seen = seen
	s.polled = true
	s.mu.Unlock()
	return seen
}

// checkRemote reports whether any reachable cloud advertises a newer
// metadata version than the cached one — the paper's cheap
// cloud-update check using only the tiny version file — and hands back
// the poll it ran.
func (s *Store) checkRemote(ctx context.Context) (pending bool, seen []cloudStamp, err error) {
	known := s.Stamp()
	seen = s.pollStamps(ctx)
	var anyReachable bool
	var lastErr error
	for _, c := range seen {
		if c.err != nil {
			lastErr = c.err
		}
		anyReachable = anyReachable || c.reachable
		if c.found && (c.stamp.Version > known.Version ||
			(c.stamp.Version == known.Version && c.stamp.Device != known.Device)) {
			return true, seen, nil
		}
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
	entries, err := c.List(ctx, s.cfg.Dir)
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
// starting beyond it plus the one straddling it). It also learns where
// c's tail begins: everything before is frozen, so this device's next
// commit re-uploads only the remote tail's worth of records. froze is
// the sealed size of the chunks it read beyond cur's freeze boundary —
// what λ must count on top of the chunks cur already knew.
func (s *Store) catchUp(ctx context.Context, c cloud.Interface, cur chain) (next chain, froze int, err error) {
	records, _, err := s.readRecords(ctx, c, deltaFile)
	if err != nil {
		return cur, 0, err
	}
	var tailStart int64 // 0: no tail of this lineage — everything is frozen
	if tail := cur.own(records); len(tail) > 0 {
		tailStart = tail[0].Version
	}
	if tailStart == 0 || tailStart > cur.head()+1 {
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
// started there, and the catch-up every reader runs.
func (s *Store) readCloud(ctx context.Context, c cloud.Interface) (cloudRead, error) {
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
	next, froze, err := s.catchUp(ctx, c, startChain(img, img.Version))
	return cloudRead{chain: next, baseLen: len(sealed), chunkBytes: froze}, err
}

// fetchAll is Refresh's fallback when the cursor cannot be extended (a
// cold cache, a rotated base, an unreachable delta): it reads every
// reachable cloud's lineage, adopts the newest consistent one and
// returns its image. It does not poll the stamps; Refresh has.
func (s *Store) fetchAll(ctx context.Context) (*meta.Image, error) {
	reads := make([]cloudRead, len(s.clouds))
	errs := make([]error, len(s.clouds))
	var wg sync.WaitGroup
	for i, c := range s.clouds {
		wg.Add(1)
		go func(i int, c cloud.Interface) {
			defer wg.Done()
			reads[i], errs[i] = s.readCloud(ctx, c)
		}(i, c)
	}
	wg.Wait()
	best := -1
	var lastErr error
	for i := range reads {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		if best < 0 || reads[i].chain.head() > reads[best].chain.head() {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("deltasync: no cloud yielded metadata: %w", lastErr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chain, s.baseLen, s.chunkBytes = reads[best].chain, reads[best].baseLen, reads[best].chunkBytes
	return s.chain.img, nil
}

// Refresh brings the cache up to date with the clouds while moving as
// few bytes as possible — the remote half of the event-driven sync
// pipeline. It first polls the tiny version stamps — once: the same
// answers rank the clouds for the catch-up and serve a Commit that
// follows under the same lock hold. When nothing is pending the cached
// image is returned untouched. When a newer commit is advertised it
// attempts an incremental catch-up of the cursor (no base moves), and
// only when that fails — the base rotated, or the delta does not
// decode — falls back to reading every cloud's whole lineage.
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
	return s.fetchAll(ctx)
}

// refreshIncremental catches the cursor up from the cloud advertising
// the newest stamp, moving on to the next one only when that cloud
// stops answering. seen is the stamp poll that found the update
// pending. A catch-up counts only when it reaches what that cloud
// advertised: a stamp is written last, so the cloud holds every record
// up to it, and a cursor that stops short was fed something else — a
// rotation emptied the delta, or left a chunk of the cursor's lineage
// behind — while the commits it misses sit on a lineage it cannot read.
// That, like an answer the cursor cannot be extended with (a torn
// delta, a diverging history), is left to the full path to judge.
func (s *Store) refreshIncremental(ctx context.Context, seen []cloudStamp) (*meta.Image, bool) {
	order := make([]int, 0, len(s.clouds))
	for i := range s.clouds {
		if seen[i].found {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return seen[order[a]].stamp.Version > seen[order[b]].stamp.Version })

	s.mu.Lock()
	cur := s.chain
	s.mu.Unlock()
	for _, i := range order {
		next, froze, err := s.catchUp(ctx, s.clouds[i], cur)
		if errors.Is(err, errUnreachable) {
			continue
		}
		if err != nil || next.head() <= cur.head() || next.head() < seen[i].stamp.Version {
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
