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
// deduplicate by version. A rotation — and the repair of any other
// cloud, which is the same write — is base → chunk delete → empty tail
// → stamp: the base lands before the old lineage's chunks go, and
// whatever of them survives is ignored by its BaseVersion. The stamp
// is always last, so a cloud never advertises what it does not hold.
type commitPlan struct {
	mode commitMode
	// next is the store's cursor once a quorum holds the commit;
	// baseLen and chunkBytes are the sizes λ compares from then on.
	next       chain
	baseLen    int
	chunkBytes int
	// current is for a cloud whose stamp is the commit being extended,
	// repair for any other; repair is nil when the plan was made with no
	// such cloud in sight (sealing the whole image is O(folder)).
	current, repair []step
	stats           CommitStats
}

// planCommit decides the commit of changes onto cur: no request, no
// store state touched. repair asks for the full-image steps even when
// the commit itself does not rotate.
func (s *Store) planCommit(cur chain, baseLen, chunkBytes int, changes []*meta.Change, repair bool) (commitPlan, error) {
	rec := Record{Version: cur.head() + 1, Device: s.cfg.Device, BaseVersion: cur.lineage, Changes: changes}
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
		next: next, baseLen: baseLen, chunkBytes: chunkBytes,
		stats: CommitStats{Version: rec.Version, DeltaBytes: len(tail)},
	}
	// λ measures the whole delta — frozen chunks plus tail.
	switch {
	case chunkBytes+len(tail) > s.lambda(baseLen):
		p.mode = modeRotate
	case len(tail) > maxTailBytes:
		p.mode = modeFreeze
	}
	if p.mode == modeRotate || repair {
		plain, err := next.img.Encode()
		if err != nil {
			return commitPlan{}, err
		}
		base, err := s.cipher.Seal(plain)
		if err != nil {
			return commitPlan{}, fmt.Errorf("deltasync: encrypting base: %w", err)
		}
		p.repair = []step{{name: baseFile, blob: base}, {dropChunks: true}, {name: deltaFile, blob: empty}, {name: versionFile, blob: stamp}}
	}
	switch p.mode {
	case modeRotate:
		p.current = p.repair
		p.next = startChain(next.img, rec.Version)
		p.baseLen, p.chunkBytes = len(p.repair[0].blob), 0
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
// Clouds whose version stamp shows they missed earlier commits are
// repaired with a full base write. The stamps are the ones the
// preceding Refresh's poll read — under the lock nobody else rewrites
// them — every cloud's, so Commit waits for the answers Refresh did not;
// a Commit that no poll preceded since the previous Commit polls them
// itself.
func (s *Store) Commit(ctx context.Context, changes []*meta.Change) (CommitStats, error) {
	s.mu.Lock()
	cur, baseLen, chunkBytes, p := s.chain, s.baseLen, s.chunkBytes, s.poll
	s.mu.Unlock()
	if p == nil {
		p = s.startPoll(ctx)
	}
	seen, err := p.Wait(ctx)
	if err != nil {
		return CommitStats{}, err
	}
	prev := cur.img.Stamp()
	current := make([]bool, len(s.clouds))
	repair := false
	for i := range s.clouds {
		current[i] = seen[i].upToDate(prev)
		repair = repair || !current[i]
	}
	plan, err := s.planCommit(cur, baseLen, chunkBytes, changes, repair)
	if err != nil {
		return CommitStats{}, err
	}

	// Every write is waited for, whatever ctx does: the stamps must be
	// known to be rewritten before the poll is dropped.
	ok, _ := cloud.Each(ctx, len(s.clouds), func(ctx context.Context, i int) bool {
		if current[i] {
			return s.write(ctx, s.clouds[i], plan.current)
		}
		return s.write(ctx, s.clouds[i], plan.repair)
	}).Wait(context.WithoutCancel(ctx))
	stats := plan.stats
	for _, accepted := range ok {
		if accepted {
			stats.CloudsOK++
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Some version files are rewritten now, whether or not a quorum was
	// reached: what the poll saw no longer describes the clouds.
	s.poll = nil
	if stats.CloudsOK < s.Quorum() {
		return stats, fmt.Errorf("%w: %d/%d", ErrNoQuorum, stats.CloudsOK, len(s.clouds))
	}
	s.chain, s.baseLen, s.chunkBytes = plan.next, plan.baseLen, plan.chunkBytes
	return stats, nil
}
