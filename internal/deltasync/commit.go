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
// many held the commit when it returned. It takes the poll's answers in
// the order they land and starts each cloud's write the moment its
// answer does, as long as the writes under way could still fall short
// of a quorum: one cloud per write the quorum needs, one more for each
// that fails. A clean answer off the cursor starts its catch-up from
// the lineage's base at once, but as a spare: the next answer is
// written as well, and the spare counts towards the quorum only if it
// lands while the quorum still needs a write, so a commit does not wait
// for a base upload the clean answers on the cursor can spare it. A
// cloud whose answer was not clean is written only once every clean
// one has been, with the full catch-up, and only when the writes under
// way, spares included, cannot make the quorum.
//
// It returns once a quorum accepted, or every cloud was tried. A write
// still in flight then — a spare the quorum did not need — is the
// commit's straggler: JoinWrites waits for it, and the next stamp poll
// starts only once it has ended, so no poll reads a cloud half written.
// Every write runs whatever ctx does: the lock holder waits for the
// stragglers before its release, since a write that landed after the
// release could hide the next holder's commit from a read quorum.
func (s *Store) writeQuorum(ctx context.Context, p *poll, plan *commitPlan) int {
	answers := p.inOrder(len(s.clouds))
	tails, bases := s.cfg.Obs.Counter("deltasync.commit.catchups.tail"), s.cfg.Obs.Counter("deltasync.commit.catchups.base")
	wctx := context.WithoutCancel(ctx)
	type wrote struct{ ok, spare bool }
	results := make(chan wrote, len(s.clouds))
	// accepted and inflight count the writes the quorum rests on, spares
	// the spare writes in flight, and sparesOK the spares that landed
	// when the quorum did not need them.
	accepted, inflight, spares, sparesOK := 0, 0, 0, 0
	var unclean []int
	start := func(i int, a cloudStamp) {
		steps, where, err := s.behind(plan, a)
		if err != nil {
			return
		}
		switch where {
		case onCursor:
			tails.Inc()
		case offCursor:
			bases.Inc()
		}
		spare := where == offCursor && a.clean()
		if spare {
			spares++
		} else {
			inflight++
		}
		go func() { results <- wrote{s.write(wctx, s.clouds[i], steps), spare} }()
	}
	for accepted < s.Quorum() {
		need := s.Quorum() - accepted - inflight
		if answers == nil && len(unclean) > 0 && need > spares {
			start(unclean[0], cloudStamp{})
			unclean = unclean[1:]
			continue
		}
		var in <-chan answer
		if need > 0 {
			in = answers
		}
		if in == nil && inflight+spares == 0 {
			break
		}
		select {
		case ans, ok := <-in:
			switch {
			case !ok:
				answers = nil
			case ans.a.clean():
				start(ans.i, ans.a)
			default:
				unclean = append(unclean, ans.i)
			}
		case r := <-results:
			if r.spare {
				spares--
			} else {
				inflight--
			}
			switch {
			case !r.ok:
			case !r.spare || accepted+inflight < s.Quorum():
				accepted++
			default:
				sparesOK++
			}
		}
	}
	if left := inflight + spares; left > 0 {
		s.cfg.Obs.Counter("deltasync.commit.stragglers").Add(int64(left))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ; left > 0; left-- {
				<-results
			}
		}()
		s.mu.Lock()
		s.writing = done
		s.mu.Unlock()
	}
	return accepted + sparesOK
}

// answer is one cloud's answer to a stamp poll, with the cloud's index.
type answer struct {
	i int
	a cloudStamp
}

// inOrder hands on the poll's answers in the order they land, the clean
// ones first: an unclean answer is handed on, as the zero answer, only
// once every answer is in. n is the number of clouds polled, and the
// channel holds them all, so its goroutine ends once every answer is
// in, whether or not anyone reads on.
func (p *poll) inOrder(n int) <-chan answer {
	answers := make(chan answer, n)
	go func() {
		defer close(answers)
		var unclean []int
		for k := 0; ; k++ {
			i, a, ok := p.take(k)
			if !ok {
				break
			}
			if a.clean() {
				answers <- answer{i, a}
			} else {
				unclean = append(unclean, i)
			}
		}
		for _, i := range unclean {
			answers <- answer{i: i}
		}
	}()
	return answers
}

// JoinWrites waits until no write of the last Commit is in flight: the
// catch-ups its quorum did not need (writeQuorum). A lock holder calls
// it before releasing.
func (s *Store) JoinWrites() {
	s.mu.Lock()
	w := s.writing
	s.mu.Unlock()
	if w != nil {
		<-w
	}
}
