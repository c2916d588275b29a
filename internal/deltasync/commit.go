package deltasync

import (
	"context"
	"fmt"

	"unidrive/internal/cloud"
	"unidrive/internal/meta"
)

// CommitStats reports what a commit moved over the network.
type CommitStats struct {
	// Version is the committed image version.
	Version int64
	// BaseRotated reports whether this commit wrote a fresh base.
	BaseRotated bool
	// DeltaBytes is the encoded (encrypted) size of the delta tail with
	// this commit's record; BaseBytes that of the base a rotating commit
	// wrote (zero otherwise). A rotating commit uploads the base per
	// cloud, any other the tail.
	DeltaBytes int
	BaseBytes  int
	// CloudsOK counts clouds that accepted the commit.
	CloudsOK int
}

// commitMode is what a commit does to the delta log.
type commitMode int

const (
	// modeAppend re-uploads the active tail with the new record.
	modeAppend commitMode = iota
	// modeFreeze uploads the tail (past maxTailBytes with the new
	// record) once as an immutable chunk and restarts it empty.
	modeFreeze
	// modeRotate folds the whole delta (past λ) into a fresh base.
	modeRotate
)

// step is one request a commit makes of a cloud: upload blob under
// name, or — dropChunks — delete every chunk object, best effort.
type step struct {
	name       string
	blob       []byte
	dropChunks bool
}

// commitPlan is a commit decided before any cloud is written: the
// cursor it leads to and, in order, what each cloud receives.
//
// The orders are crash-safe. A cloud standing at the commit being
// extended gets chunk → tail → stamp: a partial write leaves at worst
// an extra chunk whose records overlap the old tail, which readers
// deduplicate by version. A rotation is base → chunk delete → empty
// tail → stamp: the base lands before the old lineage's chunks go, and
// whatever of them survives is ignored by its BaseVersion. A cloud
// behind the commit is caught up by the same steps with what it lacks
// in front (behind): the frozen records, as one chunk, when it stands
// before the freeze boundary, and the lineage's base first when it
// does not stand on the cursor at all. The stamp is always last, so a
// cloud never advertises what it does not hold.
type commitPlan struct {
	mode commitMode
	// cur is the cursor the commit extends; next is the store's cursor
	// once a quorum holds the commit, and baseLen and chunkBytes are the
	// sizes λ compares from then on.
	cur        chain
	next       chain
	baseLen    int
	chunkBytes int
	// current is for a cloud whose stamp is the commit being extended,
	// and the tail of every other cloud's steps.
	current []step
	stats   CommitStats
	// frozen and base are the catch-up's extra uploads — the cursor's
	// frozen records as one chunk, the sealed base — made the first time
	// a cloud needs them: sealing the whole image is O(folder).
	frozen, base []byte
}

// planCommit decides the commit of changes onto cur: no request, no
// store state touched.
func (s *Store) planCommit(cur chain, baseLen, chunkBytes int, changes []*meta.Change) (commitPlan, error) {
	rec := Record{Version: cur.head() + 1, Device: s.cfg.Device, BaseVersion: cur.lineage, Changes: changes}
	rec, err := nameRecord(cur.img.Commit, rec)
	if err != nil {
		return commitPlan{}, err
	}
	next, err := cur.extend([]Record{rec})
	if err != nil {
		return commitPlan{}, fmt.Errorf("deltasync: commit: %w", err)
	}
	// Only the active tail is encoded and uploaded; the frozen prefix
	// already sits in chunk objects.
	tail, err := s.encodeDelta(next.records[cur.frozen:])
	if err != nil {
		return commitPlan{}, err
	}
	empty, err := s.encodeDelta(nil)
	if err != nil {
		return commitPlan{}, err
	}
	stamp, err := next.img.Stamp().Encode()
	if err != nil {
		return commitPlan{}, err
	}
	p := commitPlan{
		cur: cur, next: next, baseLen: baseLen, chunkBytes: chunkBytes,
		stats: CommitStats{Version: rec.Version, DeltaBytes: len(tail)},
	}
	// λ measures the whole delta — frozen chunks plus tail.
	switch {
	case chunkBytes+len(tail) > s.lambda(baseLen):
		p.mode = modeRotate
	case len(tail) > maxTailBytes:
		p.mode = modeFreeze
	}
	switch p.mode {
	case modeRotate:
		base, err := s.sealBase(next.img)
		if err != nil {
			return commitPlan{}, err
		}
		p.current = []step{{name: baseFile, blob: base}, {dropChunks: true}, {name: deltaFile, blob: empty}, {name: versionFile, blob: stamp}}
		p.next = startChain(next.img, rec.Version)
		p.baseLen, p.chunkBytes = len(base), 0
		p.stats.BaseRotated, p.stats.BaseBytes = true, p.baseLen
	case modeFreeze:
		chunk := chunkName(next.records[cur.frozen].Version)
		p.current = []step{{name: chunk, blob: tail}, {name: deltaFile, blob: empty}, {name: versionFile, blob: stamp}}
		p.next.frozen = len(next.records)
		p.chunkBytes += len(tail)
	default:
		p.current = []step{{name: deltaFile, blob: tail}, {name: versionFile, blob: stamp}}
	}
	return p, nil
}

// sealBase encodes and encrypts a whole image for the base file.
func (s *Store) sealBase(img *meta.Image) ([]byte, error) {
	s.cfg.Obs.Counter("deltasync.base_seals").Inc()
	plain, err := img.Encode()
	if err != nil {
		return nil, err
	}
	base, err := s.cipher.Seal(plain)
	if err != nil {
		return nil, fmt.Errorf("deltasync: encrypting base: %w", err)
	}
	return base, nil
}

// standing is where a cloud's poll answer puts it against a commit.
type standing int

const (
	// atHead: the cloud stands at the commit being extended.
	atHead standing = iota
	// onCursor: it stands behind it, on the cursor: it holds every
	// record up to its stamp, so records alone catch it up.
	onCursor
	// offCursor: anywhere else — a stamp of another lineage, of a commit
	// that lost, without an ID, or none read: it is caught up from the
	// lineage's base.
	offCursor
)

// behind returns the steps for a cloud whose poll answer was a, and
// where a puts it: the plan's current steps for a cloud standing on the
// cursor at or past its freeze boundary — at the commit being extended,
// or behind it and caught up by the tail alone; the cursor's frozen
// records first, as one chunk, for a cloud on the cursor before that
// boundary; and the lineage's base and its frozen records first for a
// cloud off the cursor. A rotation's steps are whole for every cloud:
// none is behind it.
//
// A cloud on the cursor at or past the freeze boundary holds the
// frozen records in chunks: it got there through the freeze.
func (s *Store) behind(p *commitPlan, a cloudStamp) (steps []step, where standing, err error) {
	cur := p.cur
	if p.mode == modeRotate {
		return p.current, atHead, nil
	}
	at, where := cur.start, offCursor
	switch {
	case a.found && a.stamp.Commit != "" && cur.holds(a.stamp):
		at, where = a.stamp.Version, onCursor
	case a.clean() && !a.found && cur.start == 0: // an empty cloud stands at genesis
		where = onCursor
	}
	if where == onCursor && at == cur.head() {
		where = atHead
	}
	if where != offCursor && at >= cur.start+int64(cur.frozen) {
		return p.current, where, nil
	}
	if where == offCursor {
		if p.base == nil {
			if p.base, err = s.sealBase(cur.base); err != nil {
				return nil, where, err
			}
		}
		steps = []step{{name: baseFile, blob: p.base}, {dropChunks: true}}
	}
	if cur.frozen > 0 {
		if p.frozen == nil {
			if p.frozen, err = s.encodeDelta(cur.records[:cur.frozen]); err != nil {
				return nil, where, err
			}
		}
		steps = append(steps, step{name: chunkName(cur.start + 1), blob: p.frozen})
	}
	return append(steps, p.current...), where, nil
}

// write sends one cloud its steps in order, stopping at the first
// upload the cloud refuses.
func (s *Store) write(ctx context.Context, c cloud.Interface, steps []step) bool {
	for _, st := range steps {
		if st.dropChunks {
			starts, _ := s.chunkStarts(ctx, c)
			for _, v := range starts {
				_ = c.Delete(ctx, s.path(chunkName(v))) // survivors are ignored by readers
			}
			continue
		}
		if err := c.Upload(ctx, s.path(st.name), st.blob); err != nil {
			return false
		}
	}
	return true
}

// Commit writes a new metadata version containing the given changes.
// It must be called while holding the quorum lock, with the cached
// state up to date (Refresh under that lock hold). The new image
// version is cached version + 1.
//
// Commit appends a record to the delta log, freezes the log's tail, or
// — when the delta would exceed λ — rotates the base (see commitPlan).
// It writes a quorum of clouds (writeQuorum): the first to answer the
// stamp poll that the preceding Refresh started — under the lock nobody
// else rewrites the stamps — or, when no poll preceded it since the
// previous Commit, one it starts itself. A cloud behind the commit is
// caught up in the same write (behind); the clouds left out stay
// behind, and a later commit that reaches them catches them up.
func (s *Store) Commit(ctx context.Context, changes []*meta.Change) (CommitStats, error) {
	s.mu.Lock()
	cur, baseLen, chunkBytes, p := s.chain, s.baseLen, s.chunkBytes, s.poll
	s.mu.Unlock()
	if p == nil || p.spent.Load() {
		p = s.startPoll(ctx)
	}
	// Some version files are rewritten now, whether or not a quorum is
	// reached: what the poll saw no longer describes the clouds.
	p.spent.Store(true)
	plan, err := s.planCommit(cur, baseLen, chunkBytes, changes)
	if err != nil {
		return CommitStats{}, err
	}
	stats := plan.stats
	stats.CloudsOK = s.writeQuorum(ctx, p, &plan)
	s.cfg.Obs.Gauge("deltasync.commit.behind").Set(float64(len(s.clouds) - stats.CloudsOK))
	if stats.CloudsOK < s.Quorum() {
		return stats, fmt.Errorf("%w: %d/%d", ErrNoQuorum, stats.CloudsOK, len(s.clouds))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chain, s.baseLen, s.chunkBytes = plan.next, plan.baseLen, plan.chunkBytes
	return stats, nil
}

// writeQuorum writes the plan to a quorum of clouds and returns how
// many accepted it. It takes the poll's answers in the order they land
// and starts each cloud's write the moment its answer does, as long as
// the writes under way could still fall short of a quorum: one cloud
// per write the quorum needs, one more for each that fails. A cloud
// whose answer was not clean is written only once every clean one has
// been, with the full catch-up. It returns once a quorum accepted, or
// every cloud was tried, and no write it started is still in flight,
// whatever ctx does: a write that landed after the lock's release could
// hide the next holder's commit from a read quorum.
func (s *Store) writeQuorum(ctx context.Context, p *poll, plan *commitPlan) int {
	k := 0
	var unclean []int // clouds whose answer was not clean, tried last
	next := func() (int, cloudStamp, bool) {
		for {
			i, a, ok := p.take(k)
			if !ok {
				break
			}
			k++
			if a.clean() {
				return i, a, true
			}
			unclean = append(unclean, i)
		}
		if len(unclean) == 0 {
			return 0, cloudStamp{}, false
		}
		i := unclean[0]
		unclean = unclean[1:]
		return i, cloudStamp{}, true
	}
	tails, bases := s.cfg.Obs.Counter("deltasync.commit.catchups.tail"), s.cfg.Obs.Counter("deltasync.commit.catchups.base")
	wctx := context.WithoutCancel(ctx)
	results := make(chan bool, len(s.clouds))
	accepted, inflight := 0, 0
	for accepted < s.Quorum() {
		for accepted+inflight < s.Quorum() {
			i, a, ok := next()
			if !ok {
				break
			}
			steps, where, err := s.behind(plan, a)
			if err != nil {
				continue
			}
			switch where {
			case onCursor:
				tails.Inc()
			case offCursor:
				bases.Inc()
			}
			inflight++
			go func() { results <- s.write(wctx, s.clouds[i], steps) }()
		}
		if inflight == 0 {
			break
		}
		if <-results {
			accepted++
		}
		inflight--
	}
	for ; inflight > 0; inflight-- {
		if <-results {
			accepted++
		}
	}
	return accepted
}
