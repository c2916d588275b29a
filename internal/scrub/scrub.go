// Package scrub is UniDrive's anti-entropy pass: a rate-limited
// background walker that verifies every committed block's existence
// and content checksum against the metadata, and (in repair mode)
// restores full (n, k) redundancy by re-encoding damaged blocks from
// the surviving healthy ones.
//
// Download-time verification (transfer) and decode-time verification
// (core) catch corruption the moment a client touches a segment — but
// cold data is exactly the data no client touches. Consumer clouds
// give no integrity guarantee UniDrive can rely on (the paper treats
// them as opaque, best-effort block stores), so a bit flip or a
// truncated object in a rarely-read segment would otherwise sit
// undetected until enough copies rot that the segment drops below K
// and the data is gone. The scrubber bounds that window: every cycle
// re-establishes, for every (block, cloud) the metadata references,
// that the copy exists and matches its CRC-32C stamp.
//
// The scrubber is deliberately a low-priority tenant: block fetches
// are paced by a configurable rate limit and claim connection slots
// with FairScheduler.TryAcquire, which never reserves capacity — a
// scrub never holds back a foreground sync by even one slot.
//
// Repairs follow the same blocks-before-metadata discipline as
// uploads: a repair intent is journaled first, replacement blocks are
// uploaded (preferring the damaged copy's own cloud, so the write is
// an idempotent overwrite of the committed path), and only then is
// the refreshed placement committed under the quorum lock. A crash at
// any point leaves either harmless overwrites or journaled orphans
// that recovery reclaims.
//
// Blocks recorded before checksums existed (Checksum == 0) are
// backfilled: once the segment's content is reconstructed and SHA-1
// verified, each legacy copy is compared against its re-encoded
// expected bytes and the stamp is committed alongside any repairs.
package scrub

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/chunker"
	"unidrive/internal/cloud"
	"unidrive/internal/erasure"
	"unidrive/internal/journal"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
	"unidrive/internal/vclock"
)

// Config parametrizes a Scrubber. Engine and Image are required;
// Commit is required for repair mode.
type Config struct {
	// Engine provides per-cloud block listing, fetching, and the
	// repair write path.
	Engine *transfer.Engine
	// Image returns the current committed metadata image.
	Image func(ctx context.Context) (*meta.Image, error)
	// Commit commits repair/backfill relocate changes under the quorum
	// lock and returns the committed metadata version. The committer
	// must re-validate against the then-current image (segments may
	// have been dropped concurrently). Required for repair mode.
	Commit func(ctx context.Context, changes []*meta.Change) (int64, error)
	// Journal, when non-nil, records repair intents so a crash between
	// repair uploads and the metadata commit leaves a reclamation
	// record instead of leaked blocks.
	Journal *journal.Journal
	// Fair, when non-nil, is the process-wide connection scheduler;
	// every scrub fetch claims a slot with TryAcquire (never reserving
	// capacity), making the scrubber strictly lower priority than
	// foreground transfers.
	Fair *transfer.FairScheduler
	// Tenant names the scrubber's owner to the shared scheduler.
	Tenant string
	// Capacity, when non-nil, is the shared quota-exhaustion tracker:
	// repair re-uploads skip capacity-Full clouds (a repair written to
	// a full cloud would only bounce), and re-expansion of thin
	// segments targets clouds with space first.
	Capacity *capacity.Tracker
	// Target, when positive, enables thin-segment re-expansion: a
	// segment committed thin (under-replicated for capacity) is grown
	// back toward Target distinct blocks — its fair-share placement —
	// once clouds with space exist, and its thin mark is cleared when
	// the target is reached. The core layer passes
	// Params.NormalBlocks().
	Target int
	// MaxPerCloud bounds how many of one segment's blocks re-expansion
	// may stack on a single cloud (the placement reliability bound);
	// 0 means unbounded.
	MaxPerCloud int
	// RatePerSec caps verification fetches per second across all
	// clouds; 0 disables pacing.
	RatePerSec float64
	// Device names this device in journal intents.
	Device string
	// Clock paces the rate limit and stamps intents; defaults to the
	// real clock.
	Clock vclock.Clock
	// Obs receives scrub.* metrics; nil disables recording.
	Obs *obs.Registry
}

// Report summarizes one scrub cycle.
type Report struct {
	// Segments is the number of segments walked.
	Segments int
	// BlocksChecked counts (block, cloud) copies whose existence was
	// established either way; copies on unknown clouds are excluded.
	BlocksChecked int
	// BlocksVerified counts copies that exist and match their stamp
	// (or, for legacy copies, their re-encoded expected content).
	BlocksVerified int
	// BlocksMissing counts copies the metadata references that their
	// cloud's listing does not contain.
	BlocksMissing int
	// BlocksCorrupt counts copies whose content fails verification.
	BlocksCorrupt int
	// RepairedBlocks counts replacement copies successfully uploaded.
	RepairedBlocks int
	// Backfilled counts legacy (Checksum == 0) copies that were
	// verified and had stamps committed this cycle.
	Backfilled int
	// Unrepairable lists segments with damage the cycle could not
	// repair (fewer than K verified copies reachable) — data loss
	// territory.
	Unrepairable []string
	// UnrepairableCapacity lists segments whose content is intact and
	// reconstructible but whose repairs (or re-expansion) could not be
	// placed because every eligible cloud is out of quota. Distinct
	// from Unrepairable: nothing is lost, the write is merely deferred
	// until capacity returns.
	UnrepairableCapacity []string
	// ThinSegments counts segments walked that are committed thin
	// (under-replicated for capacity).
	ThinSegments int
	// ReexpandedBlocks counts blocks uploaded by thin-segment
	// re-expansion this cycle.
	ReexpandedBlocks int
	// ThinCleared counts thin segments that reached their full target
	// placement this cycle.
	ThinCleared int
	// UnknownClouds lists clouds whose block listing failed; their
	// copies were skipped, not presumed missing.
	UnknownClouds []string
	// Committed reports whether a repair/backfill commit landed.
	Committed bool
}

// Scrubber walks committed segments verifying block integrity. Not
// safe for concurrent cycles; run one at a time.
type Scrubber struct {
	cfg Config
	reg *obs.Registry
	// elig is where repairs and re-expansions may be written.
	elig transfer.Eligibility
}

// New creates a Scrubber.
func New(cfg Config) (*Scrubber, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("scrub: Config.Engine is required")
	}
	if cfg.Image == nil {
		return nil, fmt.Errorf("scrub: Config.Image is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	return &Scrubber{
		cfg:  cfg,
		reg:  cfg.Obs,
		elig: transfer.Eligibility{Capacity: cfg.Capacity},
	}, nil
}

// intentID is the journal record ID for a device's scrub repairs. A
// device runs one scrub at a time, so a retried cycle overwriting the
// previous intent is exactly right (same semantics as a retried
// upload batch).
func (s *Scrubber) intentID() string { return "scrub:" + s.cfg.Device }

// cycle is the state of one Cycle: what the clouds hold, the report
// being filled in, and whether the repair intent is journaled yet.
type cycle struct {
	*Scrubber
	sv        *transfer.Survey
	rep       *Report
	journaled bool
}

// locKey addresses one copy of one block.
type locKey struct {
	blockID int
	cloudID string
}

// segDamage is everything a cycle learned about one segment.
type segDamage struct {
	seg *meta.Segment
	// missing and corrupt are the damaged copies.
	missing []meta.BlockLocation
	corrupt []meta.BlockLocation
	// healthy holds one verified copy per block ID.
	healthy map[int][]byte
	// suspect holds one unverified legacy copy per block ID (no stamp
	// anywhere for the block; plausible shard length).
	suspect map[int][]byte
	// suspectLocs lists the legacy copies awaiting a verdict.
	suspectLocs map[int][]meta.BlockLocation
	// backfill collects verified legacy copies awaiting a stamp.
	backfill map[locKey]uint32
	// enc re-encodes the segment's blocks once its content has been
	// reconstructed and SHA-verified.
	enc *reencoder
	// full names the clouds that rejected one of this segment's
	// writes for quota this cycle; place skips them.
	full map[string]bool
}

// reencoder yields any coded block of one reconstructed segment, in a
// pooled buffer it reuses: a block is valid until the next is asked
// for (PutBlock does not retain its data argument).
type reencoder struct {
	coder   *erasure.Coder
	sh      *erasure.Shards
	payload []byte
}

func (r *reencoder) block(blockID int) []byte {
	r.coder.EncodeBlocksInto(r.sh, []int{blockID}, [][]byte{r.payload})
	return r.payload
}

func (r *reencoder) release() {
	erasure.PutBuffer(r.payload)
	r.sh.Release()
}

// Cycle walks every committed segment once. With repair false it only
// verifies and reports; with repair true it additionally re-encodes
// and re-uploads damaged copies, backfills legacy stamps, and commits
// the refreshed placements.
func (s *Scrubber) Cycle(ctx context.Context, repair bool) (*Report, error) {
	if repair && s.cfg.Commit == nil {
		return nil, fmt.Errorf("scrub: repair mode requires Config.Commit")
	}
	img, err := s.cfg.Image(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrub: fetching image: %w", err)
	}
	s.reg.Counter("scrub.cycles").Inc()

	// One survey covers existence for every block. A cloud whose
	// listing fails is UNKNOWN, not empty: its copies are skipped
	// entirely — presuming them missing would trigger spurious repairs,
	// and presuming them present would hide real loss.
	sv := s.cfg.Engine.Survey(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := &Report{UnknownClouds: sv.UnknownClouds()}
	s.reg.Counter("scrub.clouds_unknown").Add(int64(len(rep.UnknownClouds)))
	c := &cycle{Scrubber: s, sv: sv, rep: rep}

	var changes []*meta.Change
	for _, segID := range img.SegmentIDs() {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		seg, _ := img.Segment(segID)
		change, err := c.scrubSegment(ctx, seg, repair)
		if err != nil {
			return nil, err
		}
		if change != nil {
			changes = append(changes, change)
		}
	}

	if len(changes) > 0 {
		version, err := s.cfg.Commit(ctx, changes)
		if err != nil {
			// The intent (if any) stays: recovery reclaims journaled
			// uploads the commit never referenced.
			return rep, fmt.Errorf("scrub: committing repairs: %w", err)
		}
		rep.Committed = true
		if c.journaled {
			if err := s.cfg.Journal.MarkCommitted(s.intentID(), version); err != nil {
				return rep, err
			}
		}
	}
	if c.journaled {
		if err := s.cfg.Journal.Clear(s.intentID()); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// scrubSegment verifies one segment and, in repair mode, restores it.
// It returns the segment's relocate change, nil when its committed
// placement stands.
func (s *cycle) scrubSegment(ctx context.Context, seg *meta.Segment, repair bool) (*meta.Change, error) {
	s.rep.Segments++
	s.reg.Counter("scrub.segments").Inc()
	d, err := s.checkSegment(ctx, seg)
	if err != nil {
		return nil, err
	}
	if seg.Thin {
		s.rep.ThinSegments++
		s.reg.Counter("scrub.thin_segments").Inc()
	}
	expand := repair && seg.Thin && s.cfg.Target > 0
	damaged := len(d.missing) + len(d.corrupt)
	if len(d.suspect) == 0 && !(repair && damaged > 0) && !expand {
		return nil, nil // nothing needs the segment's content
	}

	if !s.reconstruct(d) {
		if damaged > 0 {
			s.rep.Unrepairable = append(s.rep.Unrepairable, seg.ID)
			s.reg.Counter("scrub.unrepairable_segments").Inc()
		}
		return nil, nil
	}
	defer d.enc.release()
	// Content in hand and SHA-verified: settle every legacy copy's
	// verdict by comparing against its re-encoded expected bytes.
	s.settleSuspects(d)
	if !repair {
		return nil, nil
	}
	if len(d.missing)+len(d.corrupt) > 0 || expand {
		if err := s.ensureIntent(); err != nil {
			return nil, err
		}
	}
	change, capBlocked, err := s.repairSegment(ctx, d)
	if err == nil && expand {
		var expBlocked bool
		change, expBlocked, err = s.expandThin(ctx, d, change)
		capBlocked = capBlocked || expBlocked
	}
	if err != nil {
		return nil, err
	}
	if capBlocked {
		// Intact but unplaceable: every eligible cloud is out of
		// quota. Deferred, not lost — distinct from Unrepairable.
		s.rep.UnrepairableCapacity = append(s.rep.UnrepairableCapacity, seg.ID)
		s.reg.Counter("scrub.capacity_blocked_segments").Inc()
	}
	return change, nil
}

// ensureIntent journals the cycle's repair intent once, before the
// first block (repair or re-expansion) leaves this device.
func (s *cycle) ensureIntent() error {
	if s.cfg.Journal == nil || s.journaled {
		return nil
	}
	in := &journal.Intent{
		ID: s.intentID(), Kind: journal.KindRepair,
		Device: s.cfg.Device, CreatedAt: s.cfg.Clock.Now(),
	}
	if err := s.cfg.Journal.Begin(in); err != nil {
		return fmt.Errorf("scrub: journaling repair intent: %w", err)
	}
	s.journaled = true
	return nil
}

// checkSegment verifies every copy of one segment: existence against
// the survey, content against the per-location stamp (or any sibling
// location's stamp — block content is determined by (segment, block
// ID), so one stamp speaks for every copy of the block).
func (s *cycle) checkSegment(ctx context.Context, seg *meta.Segment) (*segDamage, error) {
	d := &segDamage{
		seg:         seg,
		healthy:     make(map[int][]byte),
		suspect:     make(map[int][]byte),
		suspectLocs: make(map[int][]meta.BlockLocation),
		backfill:    make(map[locKey]uint32),
		full:        make(map[string]bool),
	}
	rep := s.rep
	shardSize := 0
	if coder, err := erasure.CoderFor(seg.K, seg.N); err == nil {
		shardSize = coder.ShardSize(seg.Length)
	}
	for _, loc := range seg.Blocks {
		if !s.sv.Listed(loc.CloudID) {
			// Listing failed, or the cloud is not in the engine (stale
			// metadata): nothing can be said about this copy.
			continue
		}
		if !s.sv.Has(loc.CloudID, seg.ID, loc.BlockID) {
			rep.BlocksChecked++
			s.reg.Counter("scrub.blocks_checked").Inc()
			rep.BlocksMissing++
			s.reg.Counter("scrub.blocks_missing").Inc()
			d.missing = append(d.missing, loc)
			continue
		}
		var data []byte
		err := s.paced(ctx, loc.CloudID, func() (err error) {
			data, err = s.cfg.Engine.FetchBlock(ctx, loc.CloudID, seg.ID, loc.BlockID)
			return err
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Listed but unfetchable: a transport failure, not proven
			// corruption. Skip the verdict; a later cycle retries.
			s.reg.Counter("scrub.fetch_failed").Inc()
			continue
		}
		rep.BlocksChecked++
		s.reg.Counter("scrub.blocks_checked").Inc()
		want := loc.Checksum
		if want == 0 {
			want = seg.BlockSum(loc.BlockID)
		}
		switch {
		case want != 0 && meta.BlockSum(data) == want:
			rep.BlocksVerified++
			s.reg.Counter("scrub.blocks_verified").Inc()
			if d.healthy[loc.BlockID] == nil {
				d.healthy[loc.BlockID] = data
			}
			if loc.Checksum == 0 {
				d.backfill[locKey{loc.BlockID, loc.CloudID}] = want
			}
		case want != 0:
			rep.BlocksCorrupt++
			s.reg.Counter("scrub.blocks_corrupt").Inc()
			d.corrupt = append(d.corrupt, loc)
		case shardSize != 0 && len(data) != shardSize:
			// No stamp anywhere, but a coded block's length is fully
			// determined by the code: a wrong-length copy is damage.
			rep.BlocksCorrupt++
			s.reg.Counter("scrub.blocks_corrupt").Inc()
			d.corrupt = append(d.corrupt, loc)
		default:
			// Legacy copy with no stamp to check against: verdict
			// deferred until the segment content is reconstructed.
			if d.suspect[loc.BlockID] == nil {
				d.suspect[loc.BlockID] = data
			}
			d.suspectLocs[loc.BlockID] = append(d.suspectLocs[loc.BlockID], loc)
		}
	}
	return d, nil
}

// reconstruct decodes the segment content from verified copies,
// falling back to legacy suspects, SHA-1 verifies the result against
// the segment's content address and leaves it in d.enc, ready to be
// re-encoded; the caller must release d.enc.
func (s *Scrubber) reconstruct(d *segDamage) bool {
	seg := d.seg
	coder, err := erasure.CoderFor(seg.K, seg.N)
	if err != nil {
		return false
	}
	healthyIDs := sortedKeys(d.healthy)
	suspectIDs := make([]int, 0, len(d.suspect))
	for _, id := range sortedKeys(d.suspect) {
		if d.healthy[id] == nil {
			suspectIDs = append(suspectIDs, id)
		}
	}
	// Preference order: verified copies first, legacy suspects only to
	// fill up to K. A failed SHA check can then only be explained by a
	// poisoned suspect, so retries drop one suspect at a time.
	try := func(exclude int) bool {
		blocks := make(map[int][]byte, seg.K)
		for _, id := range healthyIDs {
			if len(blocks) == seg.K {
				break
			}
			blocks[id] = d.healthy[id]
		}
		for _, id := range suspectIDs {
			if len(blocks) == seg.K {
				break
			}
			if id != exclude {
				blocks[id] = d.suspect[id]
			}
		}
		if len(blocks) < seg.K {
			return false
		}
		buf := erasure.GetBuffer(seg.K * coder.ShardSize(seg.Length))
		data, err := coder.DecodeInto(buf, blocks, seg.Length)
		if err != nil {
			erasure.PutBuffer(buf)
			return false
		}
		defer erasure.PutBuffer(data)
		if chunker.SegmentID(data) != seg.ID {
			s.reg.Counter("scrub.decode_sha_mismatch").Inc()
			return false
		}
		// Split copies the content, so the decode buffer goes straight
		// back to the pool.
		sh := coder.Split(data)
		d.enc = &reencoder{coder: coder, sh: sh, payload: erasure.GetBuffer(sh.ShardSize())}
		return true
	}
	if try(-1) {
		return true
	}
	for _, id := range suspectIDs {
		if try(id) {
			return true
		}
	}
	return false
}

// settleSuspects classifies every deferred legacy copy now that the
// segment content is known: a copy matching its re-encoded expected
// bytes is verified (and queued for stamp backfill); anything else is
// corrupt.
func (s *cycle) settleSuspects(d *segDamage) {
	for _, blockID := range sortedKeys(d.suspectLocs) {
		want := meta.BlockSum(d.enc.block(blockID))
		got := meta.BlockSum(d.suspect[blockID])
		for _, loc := range d.suspectLocs[blockID] {
			if got == want {
				s.rep.BlocksVerified++
				s.reg.Counter("scrub.blocks_verified").Inc()
				d.backfill[locKey{loc.BlockID, loc.CloudID}] = want
			} else {
				s.rep.BlocksCorrupt++
				s.reg.Counter("scrub.blocks_corrupt").Inc()
				d.corrupt = append(d.corrupt, loc)
			}
		}
		if got == want && d.healthy[blockID] == nil {
			d.healthy[blockID] = d.suspect[blockID]
		}
	}
	d.suspect = nil
	d.suspectLocs = nil
}

// repairSegment re-encodes and re-uploads every damaged copy and
// returns the relocate change carrying the refreshed placement (nil
// when nothing changed). A replacement goes to the damaged copy's own
// cloud when that is not out of quota — an idempotent overwrite of the
// committed path — falling back to writeTargets' order. The second
// result reports a copy left unrepaired purely for capacity: an
// eligible destination was quota-full.
func (s *cycle) repairSegment(ctx context.Context, d *segDamage) (*meta.Change, bool, error) {
	seg := d.seg
	capBlocked := false
	moves := make(map[locKey]meta.BlockLocation) // damaged copy -> replacement
	repaired := make(map[int]bool)               // one replacement per block ID
	for _, loc := range append(append([]meta.BlockLocation(nil), d.missing...), d.corrupt...) {
		if repaired[loc.BlockID] {
			continue
		}
		repaired[loc.BlockID] = true
		cands, dropped := s.writeTargets(seg.Blocks, loc.CloudID)
		if s.elig.AcceptsWrites(loc.CloudID) {
			cands = append([]string{loc.CloudID}, cands...)
		} else {
			// A quota-full cloud still HOLDS its copies fine — it just
			// cannot take the repair write.
			dropped = true
		}
		placed, sum, err := s.place(ctx, d, loc.BlockID, cands)
		if err != nil {
			return nil, false, err
		}
		if placed == "" {
			capBlocked = capBlocked || dropped || len(d.full) > 0
			continue
		}
		s.rep.RepairedBlocks++
		s.reg.Counter("scrub.repaired_blocks").Inc()
		moves[locKey{loc.BlockID, loc.CloudID}] =
			meta.BlockLocation{BlockID: loc.BlockID, CloudID: placed, Checksum: sum}
	}
	if len(moves) == 0 && len(d.backfill) == 0 {
		return nil, capBlocked, nil
	}

	updated := seg.Clone()
	for i := range updated.Blocks {
		b := &updated.Blocks[i]
		if sum, ok := d.backfill[locKey{b.BlockID, b.CloudID}]; ok {
			b.Checksum = sum
			s.rep.Backfilled++
			s.reg.Counter("scrub.backfilled").Inc()
		}
		if repl, ok := moves[locKey{b.BlockID, b.CloudID}]; ok {
			*b = repl
		}
	}
	return relocate(updated), capBlocked, nil
}

// expandThin grows a thin (under-replicated) segment back toward the
// Target placement: missing block IDs, lowest first, are re-encoded
// from the verified content and uploaded to clouds with space, within
// the per-cloud bound; the thin mark is cleared once the target holds.
// It extends change — the segment's repair relocate, when one exists —
// or creates a fresh one. The bool result reports a capacity block:
// the target could not be reached because eligible clouds are full.
func (s *cycle) expandThin(ctx context.Context, d *segDamage, change *meta.Change) (*meta.Change, bool, error) {
	seg := d.seg
	var base *meta.Segment
	if change != nil {
		base = change.Segments[0]
	} else {
		base = seg.Clone()
	}
	target := min(s.cfg.Target, seg.N)
	placed := make(map[int]bool, len(base.Blocks))
	for _, b := range base.Blocks {
		placed[b.BlockID] = true
	}
	cands, _ := s.writeTargets(base.Blocks, "")

	added := 0
	for blockID := 0; blockID < seg.N && len(placed) < target; blockID++ {
		if placed[blockID] {
			continue
		}
		var open []string // candidates still under the per-cloud bound
		for _, name := range cands {
			if s.cfg.MaxPerCloud <= 0 || len(base.BlocksOn(name)) < s.cfg.MaxPerCloud {
				open = append(open, name)
			}
		}
		landed, sum, err := s.place(ctx, d, blockID, open)
		if err != nil {
			return nil, false, err
		}
		if landed == "" {
			continue
		}
		base.AddBlockSum(blockID, landed, sum)
		placed[blockID] = true
		added++
		s.rep.ReexpandedBlocks++
		s.reg.Counter("scrub.reexpanded_blocks").Inc()
	}

	blocked := len(placed) < target
	cleared := !blocked && base.Thin
	if cleared {
		base.Thin = false
		s.rep.ThinCleared++
		s.reg.Counter("scrub.thin_cleared").Inc()
	}
	if change != nil || (added == 0 && !cleared) {
		return change, blocked, nil // base aliases change's segment, or nothing to record
	}
	return relocate(base), blocked, nil
}

// writeTargets orders the clouds a new block of a segment may be
// written to, given where the segment's blocks are now: every listed
// cloud but skip, fewest of this segment's blocks first — the same
// spread-for-reliability tiebreak the upload planner uses — then
// filtered and ranked by eligibility (out-of-quota clouds dropped,
// Probing ones last: a probe is the last resort). The bool result
// reports that a cloud was dropped for capacity.
func (s *cycle) writeTargets(blocks []meta.BlockLocation, skip string) ([]string, bool) {
	perCloud := make(map[string]int)
	for _, b := range blocks {
		perCloud[b.CloudID]++
	}
	var cands []string
	for _, name := range s.cfg.Engine.CloudNames() {
		if s.sv.Listed(name) && name != skip {
			cands = append(cands, name)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if perCloud[cands[i]] != perCloud[cands[j]] {
			return perCloud[cands[i]] < perCloud[cands[j]]
		}
		return cands[i] < cands[j]
	})
	ranked := s.elig.WriteTargets(cands)
	return ranked, len(ranked) < len(cands)
}

// place re-encodes one block of a reconstructed segment and uploads it
// to the first candidate that takes it, reporting where it landed (""
// when nowhere) and its checksum. Every attempt is journaled before
// the block leaves this device: a crash mid-upload must leave a record
// of where an orphan could sit. A candidate that rejects the write for
// quota joins d.full and is not tried again for this segment (the
// tracker learned of the rejection through the engine's cloud chain).
func (s *cycle) place(ctx context.Context, d *segDamage, blockID int, cands []string) (string, uint32, error) {
	var payload []byte
	for _, target := range cands {
		if d.full[target] {
			continue
		}
		if payload == nil {
			payload = d.enc.block(blockID)
		}
		if s.cfg.Journal != nil {
			if err := s.cfg.Journal.UpdatePlacements(s.intentID(), d.seg.ID, map[int]string{blockID: target}); err != nil {
				return "", 0, err
			}
		}
		err := s.paced(ctx, target, func() error {
			return s.cfg.Engine.PutBlock(ctx, target, d.seg.ID, blockID, payload)
		})
		if err == nil {
			return target, meta.BlockSum(payload), nil
		}
		if ctx.Err() != nil {
			return "", 0, ctx.Err()
		}
		s.reg.Counter("scrub.repair_failed").Inc()
		if errors.Is(err, cloud.ErrQuotaExceeded) {
			d.full[target] = true
		}
	}
	return "", 0, nil
}

// relocate wraps a segment's refreshed placement in its change.
func relocate(seg *meta.Segment) *meta.Change {
	return &meta.Change{Type: meta.ChangeRelocate, Path: seg.ID, Segments: []*meta.Segment{seg}}
}

// paced runs one block request against a cloud under the rate limit
// and the fair scheduler's no-reservation discipline.
func (s *Scrubber) paced(ctx context.Context, cloudName string, request func() error) error {
	if err := s.pace(ctx); err != nil {
		return err
	}
	if err := s.acquire(ctx, cloudName); err != nil {
		return err
	}
	defer s.release(cloudName)
	return request()
}

// pace enforces the blocks-per-second budget.
func (s *Scrubber) pace(ctx context.Context) error {
	if s.cfg.RatePerSec <= 0 {
		return ctx.Err()
	}
	interval := time.Duration(float64(time.Second) / s.cfg.RatePerSec)
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.cfg.Clock.After(interval):
		return nil
	}
}

// acquire claims a (cloud, tenant) slot with TryAcquire only: a
// refusal reserves nothing, so the scrubber waits out foreground
// traffic instead of competing with it. The Changed channel is
// captured before the attempt so a wakeup between the refusal and the
// block cannot be lost.
func (s *Scrubber) acquire(ctx context.Context, cloudName string) error {
	if s.cfg.Fair == nil {
		return ctx.Err()
	}
	for {
		ch := s.cfg.Fair.Changed()
		if s.cfg.Fair.TryAcquire(cloudName, s.cfg.Tenant) {
			return nil
		}
		s.reg.Counter("scrub.fair_denied").Inc()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

func (s *Scrubber) release(cloudName string) {
	if s.cfg.Fair != nil {
		s.cfg.Fair.Release(cloudName, s.cfg.Tenant)
	}
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
