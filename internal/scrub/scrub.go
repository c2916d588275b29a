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
	cfg    Config
	reg    *obs.Registry
	coders map[[2]int]*erasure.Coder
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
		cfg:    cfg,
		reg:    cfg.Obs,
		coders: make(map[[2]int]*erasure.Coder),
		elig:   transfer.Eligibility{Capacity: cfg.Capacity},
	}, nil
}

// intentID is the journal record ID for a device's scrub repairs. A
// device runs one scrub at a time, so a retried cycle overwriting the
// previous intent is exactly right (same semantics as a retried
// upload batch).
func (s *Scrubber) intentID() string { return "scrub:" + s.cfg.Device }

// locKey addresses one copy of one block.
type locKey struct {
	blockID int
	cloudID string
}

// segDamage is everything Cycle learned about one segment.
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
	rep := &Report{}
	s.reg.Counter("scrub.cycles").Inc()

	// One listing per cloud covers existence for every block. A cloud
	// whose listing fails is UNKNOWN, not empty: its copies are
	// skipped entirely (SurveyBlocks-style conservatism) — presuming
	// them missing would trigger spurious repairs, and presuming them
	// present would hide real loss.
	listings := make(map[string]map[string]bool)
	unknown := make(map[string]bool)
	for _, name := range s.cfg.Engine.CloudNames() {
		names, lerr := s.cfg.Engine.ListBlockNames(ctx, name)
		if lerr != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			unknown[name] = true
			rep.UnknownClouds = append(rep.UnknownClouds, name)
			s.reg.Counter("scrub.clouds_unknown").Inc()
			continue
		}
		set := make(map[string]bool, len(names))
		for _, n := range names {
			set[n] = true
		}
		listings[name] = set
	}

	var changes []*meta.Change
	var intended map[string]map[int]string // journaled repair targets
	// ensureIntent journals the cycle's repair intent once, before the
	// first block (repair or re-expansion) leaves this device.
	ensureIntent := func() error {
		if s.cfg.Journal == nil || intended != nil {
			return nil
		}
		intended = make(map[string]map[int]string)
		in := &journal.Intent{
			ID: s.intentID(), Kind: journal.KindRepair,
			Device: s.cfg.Device, CreatedAt: s.cfg.Clock.Now(),
		}
		if err := s.cfg.Journal.Begin(in); err != nil {
			return fmt.Errorf("scrub: journaling repair intent: %w", err)
		}
		return nil
	}
	ids := make([]string, 0, img.NumSegments())
	for id := range img.AllSegments() {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	for _, segID := range ids {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		seg, _ := img.Segment(segID)
		rep.Segments++
		s.reg.Counter("scrub.segments").Inc()

		d, err := s.checkSegment(ctx, seg, listings, unknown, rep)
		if err != nil {
			return nil, err
		}
		if seg.Thin {
			rep.ThinSegments++
			s.reg.Counter("scrub.thin_segments").Inc()
		}
		expand := repair && seg.Thin && s.cfg.Target > 0
		damaged := len(d.missing) + len(d.corrupt)
		needsData := len(d.suspect) > 0 || (repair && damaged > 0) || expand
		if !needsData {
			continue
		}

		data, ok := s.reconstruct(seg, d)
		if !ok {
			if damaged > 0 {
				rep.Unrepairable = append(rep.Unrepairable, segID)
				s.reg.Counter("scrub.unrepairable_segments").Inc()
			}
			continue
		}
		// Content in hand and SHA-verified: settle every legacy copy's
		// verdict by comparing against its re-encoded expected bytes.
		s.settleSuspects(d, data, rep)
		damaged = len(d.missing) + len(d.corrupt)

		if !repair {
			erasure.PutBuffer(data)
			continue
		}
		if damaged > 0 || expand {
			if err := ensureIntent(); err != nil {
				erasure.PutBuffer(data)
				return nil, err
			}
		}
		change, capBlocked, err := s.repairSegment(ctx, seg, d, data, unknown, intended, rep)
		if err == nil && expand {
			var expBlocked bool
			change, expBlocked, err = s.expandThin(ctx, seg, data, unknown, intended, rep, change)
			capBlocked = capBlocked || expBlocked
		}
		erasure.PutBuffer(data)
		if err != nil {
			return nil, err
		}
		if capBlocked {
			// Intact but unplaceable: every eligible cloud is out of
			// quota. Deferred, not lost — distinct from Unrepairable.
			rep.UnrepairableCapacity = append(rep.UnrepairableCapacity, segID)
			s.reg.Counter("scrub.capacity_blocked_segments").Inc()
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
		if s.cfg.Journal != nil && intended != nil {
			if err := s.cfg.Journal.MarkCommitted(s.intentID(), version); err != nil {
				return rep, err
			}
		}
	}
	if s.cfg.Journal != nil && intended != nil {
		if err := s.cfg.Journal.Clear(s.intentID()); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// checkSegment verifies every copy of one segment: existence against
// the cloud listings, content against the per-location stamp (or any
// sibling location's stamp — block content is determined by (segment,
// block ID), so one stamp speaks for every copy of the block).
func (s *Scrubber) checkSegment(ctx context.Context, seg *meta.Segment,
	listings map[string]map[string]bool, unknown map[string]bool, rep *Report) (*segDamage, error) {

	d := &segDamage{
		seg:         seg,
		healthy:     make(map[int][]byte),
		suspect:     make(map[int][]byte),
		suspectLocs: make(map[int][]meta.BlockLocation),
		backfill:    make(map[locKey]uint32),
	}
	shardSize := 0
	if coder, err := s.coder(seg.K, seg.N); err == nil {
		shardSize = coder.ShardSize(seg.Length)
	}
	for _, loc := range seg.Blocks {
		if unknown[loc.CloudID] {
			continue // cannot say anything about this copy
		}
		listing, ok := listings[loc.CloudID]
		if !ok {
			continue // cloud not in the engine (stale metadata)
		}
		if !listing[meta.BlockName(seg.ID, loc.BlockID)] {
			rep.BlocksChecked++
			s.reg.Counter("scrub.blocks_checked").Inc()
			rep.BlocksMissing++
			s.reg.Counter("scrub.blocks_missing").Inc()
			d.missing = append(d.missing, loc)
			continue
		}
		data, err := s.fetchPaced(ctx, loc.CloudID, seg.ID, loc.BlockID)
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
// falling back to legacy suspects, and SHA-1 verifies the result
// against the segment's content address. The returned buffer is
// pooled; the caller must erasure.PutBuffer it.
func (s *Scrubber) reconstruct(seg *meta.Segment, d *segDamage) ([]byte, bool) {
	coder, err := s.coder(seg.K, seg.N)
	if err != nil {
		return nil, false
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
	try := func(exclude int) ([]byte, bool) {
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
			return nil, false
		}
		buf := erasure.GetBuffer(seg.K * coder.ShardSize(seg.Length))
		data, err := coder.DecodeInto(buf, blocks, seg.Length)
		if err != nil {
			erasure.PutBuffer(buf)
			return nil, false
		}
		if chunker.SegmentID(data) != seg.ID {
			erasure.PutBuffer(data)
			s.reg.Counter("scrub.decode_sha_mismatch").Inc()
			return nil, false
		}
		return data, true
	}
	if data, ok := try(-1); ok {
		return data, true
	}
	for _, id := range suspectIDs {
		if data, ok := try(id); ok {
			return data, true
		}
	}
	return nil, false
}

// settleSuspects classifies every deferred legacy copy now that the
// segment content is known: a copy matching its re-encoded expected
// bytes is verified (and queued for stamp backfill); anything else is
// corrupt.
func (s *Scrubber) settleSuspects(d *segDamage, data []byte, rep *Report) {
	if len(d.suspectLocs) == 0 {
		return
	}
	coder, err := s.coder(d.seg.K, d.seg.N)
	if err != nil {
		return
	}
	sh := coder.Split(data)
	payload := erasure.GetBuffer(sh.ShardSize())
	dst := [][]byte{payload}
	for _, blockID := range sortedKeys(d.suspectLocs) {
		coder.EncodeBlocksInto(sh, []int{blockID}, dst)
		want := meta.BlockSum(payload)
		got := meta.BlockSum(d.suspect[blockID])
		for _, loc := range d.suspectLocs[blockID] {
			if got == want {
				rep.BlocksVerified++
				s.reg.Counter("scrub.blocks_verified").Inc()
				d.backfill[locKey{loc.BlockID, loc.CloudID}] = want
			} else {
				rep.BlocksCorrupt++
				s.reg.Counter("scrub.blocks_corrupt").Inc()
				d.corrupt = append(d.corrupt, loc)
			}
		}
		if got == want && d.healthy[blockID] == nil {
			d.healthy[blockID] = d.suspect[blockID]
		}
	}
	erasure.PutBuffer(payload)
	sh.Release()
	d.suspect = nil
	d.suspectLocs = nil
}

// repairSegment re-encodes and re-uploads every damaged copy and
// returns the relocate change carrying the refreshed placement (nil
// when nothing changed). Replacement copies go to the damaged copy's
// own cloud when reachable and not out of quota — an idempotent
// overwrite of the committed path — falling back to the reachable
// cloud with space holding the fewest of this segment's blocks. The
// second result reports a copy left unrepaired purely for capacity:
// every eligible destination was quota-full.
func (s *Scrubber) repairSegment(ctx context.Context, seg *meta.Segment, d *segDamage,
	data []byte, unknown map[string]bool, intended map[string]map[int]string, rep *Report) (*meta.Change, bool, error) {

	capBlocked := false
	damaged := append(append([]meta.BlockLocation(nil), d.missing...), d.corrupt...)
	if len(damaged) == 0 && len(d.backfill) == 0 {
		return nil, false, nil
	}
	moves := make(map[locKey]meta.BlockLocation) // damaged copy -> replacement
	if len(damaged) > 0 {
		coder, err := s.coder(seg.K, seg.N)
		if err != nil {
			return nil, false, err
		}
		sh := coder.Split(data)
		payload := erasure.GetBuffer(sh.ShardSize())
		dst := [][]byte{payload}
		repaired := make(map[int]bool) // one replacement per block ID
		for _, loc := range damaged {
			if repaired[loc.BlockID] {
				continue
			}
			repaired[loc.BlockID] = true
			coder.EncodeBlocksInto(sh, []int{loc.BlockID}, dst)
			sum := meta.BlockSum(payload)
			placed := ""
			cands, dropped := s.repairCandidates(seg, loc, unknown)
			quotaHit := false
			for _, target := range cands {
				// Journal the attempt before the block leaves this
				// device; a crash mid-upload must leave a record of
				// where an orphan could sit.
				if err := s.journalTarget(intended, seg.ID, loc.BlockID, target); err != nil {
					erasure.PutBuffer(payload)
					sh.Release()
					return nil, false, err
				}
				if err := s.putPaced(ctx, target, seg.ID, loc.BlockID, payload); err != nil {
					if ctx.Err() != nil {
						erasure.PutBuffer(payload)
						sh.Release()
						return nil, false, ctx.Err()
					}
					if errors.Is(err, cloud.ErrQuotaExceeded) {
						// The tracker learned of this rejection through
						// the engine's wrapped cloud; for this cycle just
						// note the capacity miss and move on.
						quotaHit = true
					}
					s.reg.Counter("scrub.repair_failed").Inc()
					continue
				}
				placed = target
				break
			}
			if placed == "" {
				if dropped || quotaHit {
					capBlocked = true
				}
				continue
			}
			rep.RepairedBlocks++
			s.reg.Counter("scrub.repaired_blocks").Inc()
			moves[locKey{loc.BlockID, loc.CloudID}] =
				meta.BlockLocation{BlockID: loc.BlockID, CloudID: placed, Checksum: sum}
		}
		erasure.PutBuffer(payload)
		sh.Release()
	}
	if len(moves) == 0 && len(d.backfill) == 0 {
		return nil, capBlocked, nil
	}

	updated := seg.Clone()
	for i := range updated.Blocks {
		b := &updated.Blocks[i]
		if sum, ok := d.backfill[locKey{b.BlockID, b.CloudID}]; ok {
			b.Checksum = sum
			rep.Backfilled++
			s.reg.Counter("scrub.backfilled").Inc()
		}
		if repl, ok := moves[locKey{b.BlockID, b.CloudID}]; ok {
			*b = repl
		}
	}
	return &meta.Change{
		Type: meta.ChangeRelocate, Path: seg.ID,
		Segments: []*meta.Segment{updated}, Time: time.Time{},
	}, capBlocked, nil
}

// expandThin grows a thin (under-replicated) segment back toward the
// Target placement: missing block IDs, lowest first, are re-encoded
// from the verified content and uploaded to clouds with space, within
// the per-cloud bound; the thin mark is cleared once the target holds.
// It extends change — the segment's repair relocate, when one exists —
// or creates a fresh one. The bool result reports a capacity block:
// the target could not be reached because eligible clouds are full.
func (s *Scrubber) expandThin(ctx context.Context, seg *meta.Segment, data []byte,
	unknown map[string]bool, intended map[string]map[int]string, rep *Report,
	change *meta.Change) (*meta.Change, bool, error) {

	var base *meta.Segment
	if change != nil {
		base = change.Segments[0]
	} else {
		base = seg.Clone()
	}
	target := s.cfg.Target
	if target > seg.N {
		target = seg.N
	}
	placed := make(map[int]bool, len(base.Blocks))
	perCloud := make(map[string]int)
	for _, b := range base.Blocks {
		placed[b.BlockID] = true
		perCloud[b.CloudID]++
	}
	// Eligible targets: reachable clouds with space, fewest of this
	// segment's blocks first (Probing clouds ordered last by the
	// capacity tracker — a probe is the last resort).
	var cands []string
	for _, name := range s.cfg.Engine.CloudNames() {
		if !unknown[name] {
			cands = append(cands, name)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if perCloud[cands[i]] != perCloud[cands[j]] {
			return perCloud[cands[i]] < perCloud[cands[j]]
		}
		return cands[i] < cands[j]
	})
	cands = s.elig.WriteTargets(cands)

	added := 0
	if len(placed) < target && len(cands) > 0 {
		coder, err := s.coder(seg.K, seg.N)
		if err != nil {
			return change, false, err
		}
		sh := coder.Split(data)
		payload := erasure.GetBuffer(sh.ShardSize())
		dst := [][]byte{payload}
		full := make(map[string]bool) // quota hits within this cycle
		for blockID := 0; blockID < seg.N && len(placed) < target; blockID++ {
			if placed[blockID] {
				continue
			}
			coder.EncodeBlocksInto(sh, []int{blockID}, dst)
			sum := meta.BlockSum(payload)
			landed := ""
			for _, name := range cands {
				if full[name] {
					continue
				}
				if s.cfg.MaxPerCloud > 0 && perCloud[name] >= s.cfg.MaxPerCloud {
					continue
				}
				if err := s.journalTarget(intended, seg.ID, blockID, name); err != nil {
					erasure.PutBuffer(payload)
					sh.Release()
					return nil, false, err
				}
				if err := s.putPaced(ctx, name, seg.ID, blockID, payload); err != nil {
					if ctx.Err() != nil {
						erasure.PutBuffer(payload)
						sh.Release()
						return nil, false, ctx.Err()
					}
					if errors.Is(err, cloud.ErrQuotaExceeded) {
						full[name] = true
					} else {
						s.reg.Counter("scrub.repair_failed").Inc()
					}
					continue
				}
				landed = name
				break
			}
			if landed == "" {
				continue
			}
			base.AddBlockSum(blockID, landed, sum)
			placed[blockID] = true
			perCloud[landed]++
			added++
			rep.ReexpandedBlocks++
			s.reg.Counter("scrub.reexpanded_blocks").Inc()
		}
		erasure.PutBuffer(payload)
		sh.Release()
	}

	cleared := false
	blocked := false
	if len(placed) >= target {
		if base.Thin {
			base.Thin = false
			cleared = true
			rep.ThinCleared++
			s.reg.Counter("scrub.thin_cleared").Inc()
		}
	} else {
		blocked = true
	}
	if added == 0 && !cleared {
		return change, blocked, nil
	}
	if change != nil {
		return change, blocked, nil // base aliases change's segment
	}
	return &meta.Change{
		Type: meta.ChangeRelocate, Path: seg.ID,
		Segments: []*meta.Segment{base}, Time: time.Time{},
	}, blocked, nil
}

// repairCandidates orders the destination clouds for one damaged
// copy: its own cloud first when reachable and not out of quota (the
// repair is then an idempotent overwrite of the committed path), then
// the remaining reachable clouds with space by fewest of this
// segment's blocks — the same spread-for-reliability tiebreak the
// upload planner uses. The bool result reports that at least one
// otherwise-eligible cloud was skipped for capacity.
func (s *Scrubber) repairCandidates(seg *meta.Segment, loc meta.BlockLocation, unknown map[string]bool) ([]string, bool) {
	perCloud := make(map[string]int)
	for _, b := range seg.Blocks {
		perCloud[b.CloudID]++
	}
	var rest []string
	for _, name := range s.cfg.Engine.CloudNames() {
		if !unknown[name] && name != loc.CloudID {
			rest = append(rest, name)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		if perCloud[rest[i]] != perCloud[rest[j]] {
			return perCloud[rest[i]] < perCloud[rest[j]]
		}
		return rest[i] < rest[j]
	})
	before := len(rest)
	rest = s.elig.WriteTargets(rest)
	dropped := len(rest) < before
	if unknown[loc.CloudID] {
		return rest, dropped
	}
	if !s.elig.AcceptsWrites(loc.CloudID) {
		// A quota-full cloud still HOLDS its copies fine — it just
		// cannot take the repair write.
		return rest, true
	}
	return append([]string{loc.CloudID}, rest...), dropped
}

// journalTarget records one intended repair placement in the cycle's
// intent (and its in-memory mirror) before the upload is attempted.
func (s *Scrubber) journalTarget(intended map[string]map[int]string, segID string, blockID int, target string) error {
	if intended != nil {
		m := intended[segID]
		if m == nil {
			m = make(map[int]string)
			intended[segID] = m
		}
		m[blockID] = target
	}
	if s.cfg.Journal == nil {
		return nil
	}
	return s.cfg.Journal.UpdatePlacementsBatch(s.intentID(),
		map[string]map[int]string{segID: {blockID: target}})
}

// fetchPaced downloads one copy under the rate limit and the fair
// scheduler's no-reservation discipline.
func (s *Scrubber) fetchPaced(ctx context.Context, cloudName, segID string, blockID int) ([]byte, error) {
	if err := s.pace(ctx); err != nil {
		return nil, err
	}
	if err := s.acquire(ctx, cloudName); err != nil {
		return nil, err
	}
	defer s.release(cloudName)
	return s.cfg.Engine.FetchBlock(ctx, cloudName, segID, blockID)
}

// putPaced uploads one replacement copy under the same discipline.
func (s *Scrubber) putPaced(ctx context.Context, cloudName, segID string, blockID int, data []byte) error {
	if err := s.pace(ctx); err != nil {
		return err
	}
	if err := s.acquire(ctx, cloudName); err != nil {
		return err
	}
	defer s.release(cloudName)
	return s.cfg.Engine.PutBlock(ctx, cloudName, segID, blockID, data)
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

func (s *Scrubber) coder(k, n int) (*erasure.Coder, error) {
	key := [2]int{k, n}
	if c, ok := s.coders[key]; ok {
		return c, nil
	}
	// Non-systematic, matching the upload path (internal/core): the
	// on-cloud block format never stores plaintext shards, so the
	// scrubber must speak the same code to reconstruct and re-encode.
	c, err := erasure.NewCoder(k, n)
	if err != nil {
		return nil, err
	}
	s.coders[key] = c
	return c, nil
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
