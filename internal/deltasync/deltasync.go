// Package deltasync stores UniDrive's metadata in the multi-cloud as
// a base file plus a log-structured delta file (paper §5.2,
// "Delta-sync for Efficiency", following HDFS's image/edits design).
//
// The gross metadata (SyncFolderImage) grows with the number of files
// and would be expensive to re-upload on every commit. Instead:
//
//   - base holds a full encrypted snapshot of the image;
//   - delta holds an encrypted log of commit records appended since
//     the base was written;
//   - version holds a tiny plaintext stamp {device, version} that
//     devices poll to detect pending cloud updates without
//     downloading any metadata.
//
// When the delta grows past the threshold λ — a fraction of the base
// size with a floor (the paper suggests 0.25·base or 10 KB) — the
// committing device merges it into a fresh base and clears the delta.
//
// All three files are replicated to every cloud. Commits happen under
// the quorum lock and succeed when a majority of clouds accepted
// them; stale clouds (down during earlier commits) are detected by
// their version stamp and repaired with a full base write on the next
// commit that reaches them. A fetch picks the newest version visible
// on any reachable cloud, which under majority-commit is always the
// latest committed state.
package deltasync

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// DefaultLambdaFrac and DefaultLambdaMin define the default delta-merge
// threshold λ (the paper suggests 0.25·base or 10 KB).
const (
	DefaultLambdaFrac = 0.25
	DefaultLambdaMin  = 10 * 1024
)

// Lambda returns the default merge threshold for a base of baseLen
// bytes: a delta log larger than this is folded into a fresh base. The
// client's local checkpoint applies the same rule to its state file.
func Lambda(baseLen int) int { return lambda(DefaultLambdaFrac, DefaultLambdaMin, baseLen) }

func lambda(frac float64, floor, baseLen int) int {
	if l := int(frac * float64(baseLen)); l > floor {
		return l
	}
	return floor
}

// ErrNoQuorum reports that a commit could not reach a majority of
// clouds.
var ErrNoQuorum = errors.New("deltasync: commit did not reach a quorum of clouds")

// Record is one committed metadata update in the delta log.
type Record struct {
	// Version is the image version this record produces.
	Version int64 `json:"version"`
	// Device is the committing device.
	Device string `json:"device"`
	// BaseVersion is the version of the base the record applies to;
	// a delta whose BaseVersion does not match a cloud's base is
	// evidence of a stale cloud and is ignored.
	BaseVersion int64 `json:"baseVersion"`
	// Changes are the file changes of this commit.
	Changes []*meta.Change `json:"changes"`
}

// maxTailBytes caps the active delta tail: when the sealed tail would
// exceed it, the tail is frozen into an immutable chunk object
// (delta.v<firstVersion>) uploaded once, and the tail restarts empty.
// Commits therefore re-encode and re-upload only the records since the
// last freeze — O(recent changes) — instead of the whole chain since
// the last base rotation, which grows with folder size (a single
// post-populate relocation commit can hold thousands of records).
const maxTailBytes = 64 * 1024

// Config parametrizes the store.
type Config struct {
	// Device is this device's name, stamped into commits.
	Device string
	// Dir is the metadata directory on each cloud (DefaultDir).
	Dir string
	// LambdaFrac and LambdaMin define the delta-merge threshold λ:
	// the delta is merged into the base when its encoded size
	// exceeds max(LambdaFrac·baseSize, LambdaMin). Defaults 0.25 and
	// 10 KB.
	LambdaFrac float64
	LambdaMin  int
	// LazyBase skips encoding and encrypting the full image on commits
	// that do not rotate the base (the common case) — the dominant
	// per-commit CPU cost once folders grow large. λ is then computed
	// against the sealed size of the last fetched or rotated base, and
	// a stale cloud needing repair triggers the encode on demand. With
	// LazyBase set, CommitStats.BaseBytes and FullImageBytes are zero
	// on non-rotating commits, so the delta-efficiency experiments run
	// with it off.
	LazyBase bool
	// Obs receives store metrics; nil disables instrumentation.
	Obs *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.Dir == "" {
		c.Dir = DefaultDir
	}
	if c.LambdaFrac <= 0 {
		c.LambdaFrac = DefaultLambdaFrac
	}
	if c.LambdaMin <= 0 {
		c.LambdaMin = DefaultLambdaMin
	}
}

// CommitStats reports what a commit moved over the network, used by
// the Delta-sync efficiency experiment (paper Fig 13).
type CommitStats struct {
	// Version is the committed image version.
	Version int64
	// BaseRotated reports whether this commit wrote a fresh base.
	BaseRotated bool
	// DeltaBytes and BaseBytes are the encoded (encrypted) sizes
	// uploaded per cloud for the delta and base files.
	DeltaBytes int
	BaseBytes  int
	// FullImageBytes is the size a non-delta design would have
	// uploaded (the whole encoded image) — the Fig 13 comparison.
	FullImageBytes int
	// CloudsOK counts clouds that accepted the commit.
	CloudsOK int
}

// Store replicates metadata to a set of clouds. Safe for concurrent
// use, though commits must be serialized by the quorum lock.
type Store struct {
	clouds []cloud.Interface
	cipher *metacrypt.Cipher
	cfg    Config

	mu      sync.Mutex
	base    *meta.Image // last known base
	records []Record    // last known delta records (frozen chunks + tail)
	stamp   meta.VersionStamp
	img     *meta.Image // materialized base+records; replaced, never mutated
	baseLen int         // sealed size of base as last fetched/rotated, for λ under LazyBase
	// frozen is the count of records already frozen into chunk
	// objects; records[frozen:] is the active tail re-uploaded per
	// commit. chunkBytes is the total sealed size of the frozen
	// chunks, counted toward λ.
	frozen     int
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
	cfg.fillDefaults()
	s := &Store{
		clouds: clouds,
		cipher: cipher,
		cfg:    cfg,
		base:   meta.NewImage(),
	}
	s.img = s.materializeLocked()
	return s
}

// Quorum returns the majority count for commits.
func (s *Store) Quorum() int { return len(s.clouds)/2 + 1 }

func (s *Store) path(name string) string { return cloud.JoinPath(s.cfg.Dir, name) }

// Stamp returns the last known committed version stamp.
func (s *Store) Stamp() meta.VersionStamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stamp
}

// Cached returns a deep copy of the last fetched/committed image.
func (s *Store) Cached() *meta.Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.img.Clone()
}

// CachedShared returns the last fetched/committed image without
// copying. The returned image is shared and MUST be treated as
// read-only: the store replaces it wholesale on every state change
// and never mutates it in place, so a held reference stays internally
// consistent. The event-driven sync loop uses this on its per-pass
// hot path, where Cached's deep copy would reintroduce an O(folder)
// cost per pass.
func (s *Store) CachedShared() *meta.Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.img
}

// materializeLocked rebuilds the image from base + records.
func (s *Store) materializeLocked() *meta.Image {
	img := s.base.Clone()
	for _, r := range s.records {
		for _, c := range r.Changes {
			// Records were validated at commit time; an error here
			// indicates corrupted state and is surfaced by the full fetch.
			_ = img.Apply(c, r.Device)
		}
		img.Version = r.Version
		img.Device = r.Device
	}
	// Zero-reference segments are dropped deterministically at
	// materialization, so every device converges on the same pool and
	// the committing device can garbage-collect their blocks.
	img.DropSegments(img.RecountRefs())
	return img
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

// CheckRemote reports whether any reachable cloud advertises a newer
// metadata version than the cached one — the paper's cheap
// cloud-update check using only the tiny version file.
func (s *Store) CheckRemote(ctx context.Context) (bool, error) {
	pending, _, err := s.checkRemote(ctx)
	return pending, err
}

// checkRemote is CheckRemote, also handing back the poll it ran.
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

// cloudState is one cloud's fetched metadata.
type cloudState struct {
	base       *meta.Image
	baseLen    int // sealed base size on the wire
	records    []Record
	frozen     int // records[:frozen] came from chunk objects
	chunkBytes int // sealed size of those chunks
	stamp      meta.VersionStamp
}

// fetchCloud reads and validates one cloud's metadata lineage.
func (s *Store) fetchCloud(ctx context.Context, c cloud.Interface) (*cloudState, error) {
	baseData, err := c.Download(ctx, s.path(baseFile))
	var baseImg *meta.Image
	switch {
	case errors.Is(err, cloud.ErrNotFound):
		baseImg = meta.NewImage()
	case err != nil:
		return nil, fmt.Errorf("deltasync: fetching base from %s: %w", c.Name(), err)
	default:
		plain, err := s.cipher.Open(baseData)
		if err != nil {
			return nil, fmt.Errorf("deltasync: decrypting base from %s: %w", c.Name(), err)
		}
		baseImg, err = meta.DecodeImage(plain)
		if err != nil {
			return nil, fmt.Errorf("deltasync: decoding base from %s: %w", c.Name(), err)
		}
	}

	// The delta log is the frozen chunks (in version order — the
	// zero-padded names sort that way) followed by the active tail.
	chunks, chunkBytes, err := s.fetchChunks(ctx, c)
	if err != nil {
		return nil, err
	}
	var tail []Record
	deltaData, err := c.Download(ctx, s.path(deltaFile))
	switch {
	case errors.Is(err, cloud.ErrNotFound):
		// No delta yet.
	case err != nil:
		return nil, fmt.Errorf("deltasync: fetching delta from %s: %w", c.Name(), err)
	default:
		tail, err = s.decodeDelta(deltaData)
		if err != nil {
			return nil, fmt.Errorf("deltasync: delta from %s: %w", c.Name(), err)
		}
	}

	// Assemble and validate lineage: accepted records must chain from
	// this base. Records of another lineage (chunks or a tail that
	// survived a base rotation or repair) are ignored, and records at
	// or below the accepted head are duplicates from an interrupted
	// freeze (chunk uploaded, tail not yet emptied) — also skipped.
	st := &cloudState{base: baseImg, baseLen: len(baseData), chunkBytes: chunkBytes}
	expect := baseImg.Version
	for part, recs := range [][]Record{chunks, tail} {
		for _, r := range recs {
			if r.BaseVersion != baseImg.Version || r.Version <= expect {
				continue
			}
			if r.Version != expect+1 {
				return nil, fmt.Errorf("deltasync: %s has inconsistent lineage (base v%d, record v%d after v%d)",
					c.Name(), baseImg.Version, r.Version, expect)
			}
			st.records = append(st.records, r)
			expect = r.Version
			if part == 0 {
				st.frozen = len(st.records)
			}
		}
	}
	st.stamp = meta.VersionStamp{Device: baseImg.Device, Version: baseImg.Version}
	if n := len(st.records); n > 0 {
		st.stamp = meta.VersionStamp{Device: st.records[n-1].Device, Version: st.records[n-1].Version}
	}
	return st, nil
}

// fetchChunks downloads every frozen chunk object on c, in version
// order, and returns the concatenated records plus total sealed size.
func (s *Store) fetchChunks(ctx context.Context, c cloud.Interface) ([]Record, int, error) {
	entries, err := c.List(ctx, s.cfg.Dir)
	if err != nil {
		if errors.Is(err, cloud.ErrNotFound) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("deltasync: listing chunks on %s: %w", c.Name(), err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseChunkName(e.Name); ok {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	var records []Record
	var total int
	for _, name := range names {
		blob, err := c.Download(ctx, s.path(name))
		if err != nil {
			if errors.Is(err, cloud.ErrNotFound) {
				continue // deleted between list and read (rotation racing)
			}
			return nil, 0, fmt.Errorf("deltasync: fetching chunk %s from %s: %w", name, c.Name(), err)
		}
		recs, err := s.decodeDelta(blob)
		if err != nil {
			return nil, 0, fmt.Errorf("deltasync: chunk %s from %s: %w", name, c.Name(), err)
		}
		records = append(records, recs...)
		total += len(blob)
	}
	return records, total, nil
}

// fetchAll is Refresh's fallback when the delta cursor cannot be
// extended (a cold cache, a rotated base, an unreachable delta): it
// collects every reachable cloud's whole lineage, adopts the newest
// consistent one and returns the materialized image. It does not poll
// the stamps; Refresh has.
func (s *Store) fetchAll(ctx context.Context) (*meta.Image, error) {
	states := make([]*cloudState, len(s.clouds))
	errs := make([]error, len(s.clouds))
	var wg sync.WaitGroup
	for i, c := range s.clouds {
		wg.Add(1)
		go func(i int, c cloud.Interface) {
			defer wg.Done()
			states[i], errs[i] = s.fetchCloud(ctx, c)
		}(i, c)
	}
	wg.Wait()
	var best *cloudState
	var lastErr error
	for i, st := range states {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		if best == nil || st.stamp.Version > best.stamp.Version {
			best = st
		}
	}
	if best == nil {
		return nil, fmt.Errorf("deltasync: no cloud yielded metadata: %w", lastErr)
	}
	s.mu.Lock()
	s.base = best.base
	s.baseLen = best.baseLen
	s.records = best.records
	s.frozen = best.frozen
	s.chunkBytes = best.chunkBytes
	s.stamp = best.stamp
	s.img = s.materializeLocked()
	img := s.img
	s.mu.Unlock()
	return img, nil
}

// Refresh brings the cache up to date with the clouds while moving as
// few bytes as possible — the remote half of the event-driven sync
// pipeline. It first polls the tiny version stamps (CheckRemote) —
// once: the same answers rank the clouds for the catch-up and serve a
// Commit that follows under the same lock hold. When nothing is
// pending the cached image is returned untouched. When a
// newer commit is advertised it attempts an incremental catch-up: the
// cached record log acts as a delta cursor into the remote version
// chain, so downloading only the delta file and verifying that it
// extends the cursor from the same base suffices. Only when that fails
// (the base rotated, or the delta is unreachable) does it fall back to
// fetching every cloud's whole lineage (fetchAll).
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

// refreshIncremental attempts a delta-only catch-up: download just the
// active delta tail from the cloud advertising the newest stamp and
// adopt it if it extends the cached records from the cached base.
// When chunk freezes since the last poll opened a gap between the
// cached head and the tail's first record, only the chunks covering
// that gap are downloaded — never the base. seen is the stamp poll
// that found the update pending.
func (s *Store) refreshIncremental(ctx context.Context, seen []cloudStamp) (*meta.Image, bool) {
	// Rank the clouds that served a stamp by advertised version, newest
	// first.
	order := make([]int, 0, len(s.clouds))
	for i := range s.clouds {
		if seen[i].found {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return seen[order[a]].stamp.Version > seen[order[b]].stamp.Version })

	for _, i := range order {
		c := s.clouds[i]
		deltaData, err := c.Download(ctx, s.path(deltaFile))
		if err != nil {
			continue // cloud served the stamp but not the delta; try next
		}
		tail, err := s.decodeDelta(deltaData)
		if err != nil {
			return nil, false // corrupt delta: let fetchAll's validation decide
		}
		s.mu.Lock()
		lastV := s.stamp.Version
		s.mu.Unlock()
		var tailStart int64 // 0: no tail — everything is frozen
		if len(tail) > 0 {
			tailStart = tail[0].Version
		}
		records := tail
		if len(tail) == 0 || tail[0].Version > lastV+1 {
			// The records between our head and the tail were frozen
			// into chunks since we last looked; backfill just those.
			chunkRecs, ok := s.fetchChunksAfter(ctx, c, lastV)
			if !ok {
				return nil, false
			}
			records = append(chunkRecs, tail...)
		}
		if img, ok := s.adoptRecords(records, tailStart); ok {
			return img, true
		}
		return nil, false // inconsistent with cursor (e.g. base rotated)
	}
	return nil, false
}

// fetchChunksAfter downloads the frozen chunks that may hold records
// with versions beyond afterV: every chunk starting past afterV plus
// the one straddling it. Returns ok=false when the listing or a
// download fails (the caller falls back to fetchAll).
func (s *Store) fetchChunksAfter(ctx context.Context, c cloud.Interface, afterV int64) ([]Record, bool) {
	entries, err := c.List(ctx, s.cfg.Dir)
	if err != nil {
		return nil, false
	}
	var starts []int64
	for _, e := range entries {
		if v, ok := parseChunkName(e.Name); ok {
			starts = append(starts, v)
		}
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	// Keep chunks from the last one starting at or before afterV+1.
	lo := 0
	for k, v := range starts {
		if v <= afterV+1 {
			lo = k
		}
	}
	var records []Record
	for _, v := range starts[lo:] {
		blob, err := c.Download(ctx, s.path(chunkName(v)))
		if err != nil {
			return nil, false
		}
		recs, err := s.decodeDelta(blob)
		if err != nil {
			return nil, false
		}
		records = append(records, recs...)
	}
	return records, true
}

// adoptRecords extends the cached record chain with freshly
// downloaded records. The cached chain acts as the delta cursor:
// records at or below its head must agree with it (same device per
// version — overlap from an interrupted freeze is deduplicated, a
// diverging chain is rejected), records beyond it must chain
// contiguously from the cached base. tailStart is the first version
// of the remote active tail (0 when the tail was empty); everything
// before it is known frozen, which moves the local freeze boundary so
// this device's next commit re-uploads only the remote tail's worth
// of records.
func (s *Store) adoptRecords(records []Record, tailStart int64) (*meta.Image, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := s.img
	adopted := append([]Record(nil), s.records...)
	expect := s.stamp.Version
	for _, r := range records {
		if r.BaseVersion != s.base.Version {
			return nil, false // another lineage: the base rotated
		}
		if r.Version <= expect {
			// Overlap with the cached chain: verify, then skip.
			idx := int(r.Version - s.base.Version - 1)
			if idx < 0 || idx >= len(adopted) || adopted[idx].Device != r.Device {
				return nil, false
			}
			continue
		}
		if r.Version != expect+1 {
			return nil, false // gap the chunks did not cover
		}
		// Apply COW, so an incremental catch-up costs O(new changes) —
		// not a full replay.
		next, err := img.ApplyCOW(r.Changes, r.Device)
		if err != nil {
			return nil, false // corrupt record; fetchAll will surface it
		}
		next.Version = r.Version
		next.Device = r.Device
		img = next
		adopted = append(adopted, r)
		expect = r.Version
	}
	if len(adopted) <= len(s.records) {
		return nil, false // no progress (rotation empties the delta)
	}
	newFrozen := len(adopted)
	if tailStart > 0 {
		newFrozen = int(tailStart - s.base.Version - 1)
	}
	if newFrozen > len(adopted) {
		newFrozen = len(adopted)
	}
	if newFrozen > s.frozen {
		// Records moved into chunks remotely; account their sealed
		// size toward λ. The exact chunk split is unknown, but the
		// sealed size of the records is the same to within framing.
		if blob, err := s.encodeDelta(adopted[s.frozen:newFrozen]); err == nil {
			s.chunkBytes += len(blob)
		}
		s.frozen = newFrozen
	}
	s.records = adopted
	last := adopted[len(adopted)-1]
	s.stamp = meta.VersionStamp{Device: last.Device, Version: last.Version}
	s.img = img
	return s.img, true
}

// RecordsSince returns the committed records with versions in
// (from, to], in commit order, when the cached record chain covers
// that whole span. ok=false means the span crosses a base rotation (or
// references versions the chain does not hold). The records are shared
// with the store and must be treated as read-only.
func (s *Store) RecordsSince(from, to int64) (records []Record, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.base.Version || to > s.stamp.Version || from > to {
		return nil, false
	}
	// The chain is contiguous from the base (fetchCloud and adoptRecords
	// enforce it), so the span is a sub-slice. The store only ever
	// replaces s.records, never writes into it.
	lo, hi := int(from-s.base.Version), int(to-s.base.Version)
	if hi > len(s.records) {
		return nil, false
	}
	return s.records[lo:hi:hi], true
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

// encodeDelta serializes and encrypts the record log as JSON lines.
func (s *Store) encodeDelta(records []Record) ([]byte, error) {
	var buf bytes.Buffer
	for _, r := range records {
		line, err := encodeRecord(r)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	sealed, err := s.cipher.Seal(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("deltasync: encrypting delta: %w", err)
	}
	return sealed, nil
}

func (s *Store) decodeDelta(blob []byte) ([]Record, error) {
	plain, err := s.cipher.Open(blob)
	if err != nil {
		return nil, fmt.Errorf("decrypting delta: %w", err)
	}
	var records []Record
	for _, line := range bytes.Split(plain, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		r, err := decodeRecord(line)
		if err != nil {
			return nil, err
		}
		records = append(records, r)
	}
	return records, nil
}

// Commit writes a new metadata version containing the given changes.
// It must be called while holding the quorum lock, with the cached
// state up to date (Refresh under that lock hold). The new
// image version is cached version + 1.
//
// Commit appends a record to the delta log, or — when the delta would
// exceed λ, or a full image write is forced — rotates the base.
// Clouds whose version stamp shows they missed earlier commits are
// repaired with a full base write. The stamps are the ones the
// preceding Refresh or CheckRemote read — under the lock nobody
// else rewrites them — and a Commit that no poll preceded since the
// previous Commit polls them itself.
func (s *Store) Commit(ctx context.Context, changes []*meta.Change) (CommitStats, error) {
	for _, c := range changes {
		if err := c.Validate(); err != nil {
			return CommitStats{}, fmt.Errorf("deltasync: commit: %w", err)
		}
	}
	s.mu.Lock()
	prevStamp := s.stamp
	prevBaseLen := s.baseLen
	prevFrozen := s.frozen
	prevChunkBytes := s.chunkBytes
	rec := Record{
		Version:     prevStamp.Version + 1,
		Device:      s.cfg.Device,
		BaseVersion: s.base.Version,
		Changes:     changes,
	}
	newRecords := append(append([]Record(nil), s.records...), rec)
	// COW apply onto the cached image: O(changes), not O(folder) — the
	// cached image was itself produced by materialization or a previous
	// COW apply, so its refcounts are exact. The slow full replay
	// survives only in materializeLocked (fetch paths).
	newImage, err := s.img.ApplyCOW(changes, s.cfg.Device)
	if err != nil {
		s.mu.Unlock()
		return CommitStats{}, fmt.Errorf("deltasync: commit: %w", err)
	}
	newImage.Version = rec.Version
	newImage.Device = rec.Device
	seen, polled := s.seen, s.polled
	s.mu.Unlock()
	if !polled {
		seen = s.pollStamps(ctx)
	}

	// Encoding and encrypting the full image is O(folder); under
	// LazyBase it runs only when something actually needs the bytes
	// (rotation, or repairing a stale cloud).
	sealBase := sync.OnceValues(func() ([]byte, error) {
		fullImageData, err := newImage.Encode()
		if err != nil {
			return nil, err
		}
		sealed, err := s.cipher.Seal(fullImageData)
		if err != nil {
			return nil, fmt.Errorf("deltasync: encrypting base: %w", err)
		}
		return sealed, nil
	})
	// Only the active tail — the records since the last chunk freeze —
	// is encoded and uploaded. The frozen prefix of the chain already
	// sits in immutable chunk objects, so a commit costs O(recent
	// changes), not O(chain since rotation).
	tail := newRecords[prevFrozen:]
	tailBlob, err := s.encodeDelta(tail)
	if err != nil {
		return CommitStats{}, err
	}
	stampData, err := meta.VersionStamp{Device: s.cfg.Device, Version: rec.Version}.Encode()
	if err != nil {
		return CommitStats{}, err
	}

	baseLen := prevBaseLen
	if !s.cfg.LazyBase {
		sealed, err := sealBase()
		if err != nil {
			return CommitStats{}, err
		}
		baseLen = len(sealed)
	}
	// λ measures the whole delta — frozen chunks plus tail — against
	// the base, exactly as before chunking.
	rotate := prevChunkBytes+len(tailBlob) > lambda(s.cfg.LambdaFrac, s.cfg.LambdaMin, baseLen)
	// A tail past the chunk cap is frozen with this commit: the tail
	// (including the new record) is uploaded once as an immutable
	// chunk and the active tail restarts empty.
	freeze := !rotate && len(tailBlob) > maxTailBytes
	var chunk string
	if freeze {
		chunk = chunkName(tail[0].Version)
	}
	emptyTail, err := s.encodeDelta(nil)
	if err != nil {
		return CommitStats{}, err
	}

	stats := CommitStats{
		Version:     rec.Version,
		BaseRotated: rotate,
		DeltaBytes:  len(tailBlob),
	}
	newBaseLen := prevBaseLen
	if rotate || !s.cfg.LazyBase {
		sealed, err := sealBase()
		if err != nil {
			return stats, err
		}
		stats.BaseBytes = len(sealed)
		stats.FullImageBytes = len(sealed)
		if rotate {
			newBaseLen = len(sealed)
		}
	}

	var wg sync.WaitGroup
	okCh := make([]bool, len(s.clouds))
	for i, c := range s.clouds {
		wg.Add(1)
		go func(i int, c cloud.Interface) {
			defer wg.Done()
			okCh[i] = s.commitToCloud(ctx, c, seen[i].upToDate(prevStamp), rotate, freeze, chunk, sealBase, tailBlob, emptyTail, stampData)
		}(i, c)
	}
	wg.Wait()
	// Some version files are rewritten now, whether or not a quorum was
	// reached: what the poll saw no longer describes the clouds.
	s.mu.Lock()
	s.polled = false
	s.mu.Unlock()
	for _, ok := range okCh {
		if ok {
			stats.CloudsOK++
		}
	}
	if stats.CloudsOK < s.Quorum() {
		return stats, fmt.Errorf("%w: %d/%d", ErrNoQuorum, stats.CloudsOK, len(s.clouds))
	}

	s.mu.Lock()
	switch {
	case rotate:
		s.base = newImage
		s.records = nil
		s.frozen = 0
		s.chunkBytes = 0
	case freeze:
		s.records = newRecords
		s.frozen = len(newRecords)
		s.chunkBytes = prevChunkBytes + len(tailBlob)
	default:
		s.records = newRecords
	}
	s.baseLen = newBaseLen
	s.stamp = meta.VersionStamp{Device: s.cfg.Device, Version: rec.Version}
	s.img = newImage
	s.mu.Unlock()
	return stats, nil
}

// commitToCloud writes this commit to one cloud. A cloud that is
// up-to-date (the stamp poll saw it at the commit being extended)
// receives only the delta tail (or, on a freeze, the frozen chunk plus
// an empty tail; on rotation, the new base); a stale or empty cloud
// receives a full repair (base + empty delta). sealBase produces the
// sealed full image on demand (memoized), so commits that write no
// base never pay for encoding one.
//
// Write order is crash-safe: chunk before tail before stamp, so a
// partial commit leaves at worst an extra chunk whose records overlap
// the old tail — readers deduplicate by version — and base writes
// precede chunk deletion, so leftover chunks of the old lineage are
// filtered by their BaseVersion until the next rotation removes them.
func (s *Store) commitToCloud(ctx context.Context, c cloud.Interface, upToDate,
	rotate, freeze bool, chunk string, sealBase func() ([]byte, error), tailBlob, emptyTail, stampData []byte) bool {

	switch {
	case rotate || !upToDate:
		sealedBase, err := sealBase()
		if err != nil {
			return false
		}
		if err := c.Upload(ctx, s.path(baseFile), sealedBase); err != nil {
			return false
		}
		// Chunks of the replaced lineage are dead: best-effort removal;
		// survivors are ignored by readers (BaseVersion mismatch).
		s.deleteChunks(ctx, c)
		if err := c.Upload(ctx, s.path(deltaFile), emptyTail); err != nil {
			return false
		}
	case freeze:
		if err := c.Upload(ctx, s.path(chunk), tailBlob); err != nil {
			return false
		}
		if err := c.Upload(ctx, s.path(deltaFile), emptyTail); err != nil {
			return false
		}
	default:
		if err := c.Upload(ctx, s.path(deltaFile), tailBlob); err != nil {
			return false
		}
	}
	return c.Upload(ctx, s.path(versionFile), stampData) == nil
}

// deleteChunks removes every frozen chunk object on c, best effort.
func (s *Store) deleteChunks(ctx context.Context, c cloud.Interface) {
	entries, err := c.List(ctx, s.cfg.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if _, ok := parseChunkName(e.Name); ok {
			_ = c.Delete(ctx, s.path(e.Name))
		}
	}
}

func encodeRecord(r Record) ([]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("deltasync: encoding record v%d: %w", r.Version, err)
	}
	return data, nil
}

func decodeRecord(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, fmt.Errorf("deltasync: decoding record: %w", err)
	}
	return r, nil
}
