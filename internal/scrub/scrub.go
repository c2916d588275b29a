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
package scrub

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/chunker"
	"unidrive/internal/cloud"
	"unidrive/internal/erasure"
	"unidrive/internal/journal"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/transfer"
	"unidrive/internal/vclock"
)

// Config parametrizes a Scrubber. Engine, Image, Journal and Params
// are required; Commit is required for repair mode.
type Config struct {
	// Engine provides per-cloud block listing, fetching, and the
	// repair write path.
	Engine *transfer.Engine
	// Image returns the current committed metadata image.
	Image func(ctx context.Context) (*meta.Image, error)
	// Commit commits repair placement records under the quorum lock
	// and returns the committed metadata version. A record places, of
	// its segment, the locations of the block IDs this cycle wrote and
	// states the thin verdict; applying it lays it on the then-current
	// record (meta.Image.Apply), and a segment dropped since ignores
	// it. Required for repair mode.
	Commit func(ctx context.Context, changes []*meta.Change) (int64, error)
	// Journal records repair intents so a crash between repair uploads
	// and the metadata commit leaves a reclamation record instead of
	// leaked blocks.
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
	// Params are the placement rules every repair and re-expansion
	// write obeys (sched.Params.Targets): no write brings a cloud to more
	// than MaxPerCloud of one segment's blocks. They also enable
	// thin-segment re-expansion: a segment committed thin
	// (under-replicated for capacity) is grown back toward its normal
	// placement, NormalBlocks distinct blocks, once clouds with space
	// exist, and its thin mark is cleared when that is reached.
	Params sched.Params
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
	// BlocksVerified counts copies that exist and match their stamp.
	BlocksVerified int
	// BlocksMissing counts copies the metadata references that their
	// cloud's listing does not contain.
	BlocksMissing int
	// BlocksCorrupt counts copies whose content fails verification.
	BlocksCorrupt int
	// RepairedBlocks counts replacement copies successfully uploaded.
	RepairedBlocks int
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
	// Committed reports whether a repair commit landed.
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
	if cfg.Journal == nil {
		return nil, fmt.Errorf("scrub: Config.Journal is required")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("scrub: Config.Params: %w", err)
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

// cycle is the state of one Cycle: what the clouds hold, the clouds
// whose listing answered (the only ones a write may target), the report
// being filled in, and whether the repair intent is journaled yet.
type cycle struct {
	*Scrubber
	sv        *transfer.Survey
	listed    []string
	rep       *Report
	journaled bool
}

// segDamage is everything a cycle learned about one segment, and what
// it wrote.
type segDamage struct {
	seg *meta.Segment
	// cur is the segment's placement as the cycle's writes leave it, and
	// wrote the block IDs they placed.
	cur   *meta.Segment
	wrote map[int]bool
	// missing and corrupt are the damaged copies.
	missing []meta.BlockLocation
	corrupt []meta.BlockLocation
	// healthy holds one verified copy per block ID.
	healthy map[int][]byte
	// content is the segment's reconstructed, SHA-verified content,
	// and src re-encodes its blocks; release returns both.
	content []byte
	src     *erasure.Source
	// full names the clouds that rejected one of this segment's
	// writes for quota this cycle; place skips them.
	full map[string]bool
}

func (d *segDamage) release() {
	d.src.Release()
	erasure.PutBuffer(d.content)
}

// Cycle walks every committed segment once. With repair false it only
// verifies and reports; with repair true it additionally re-encodes
// and re-uploads damaged copies and commits the refreshed placements.
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
	for _, name := range s.cfg.Engine.CloudNames() {
		if sv.Listed(name) {
			c.listed = append(c.listed, name)
		}
	}

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
			if err := s.cfg.Journal.MarkCommitted(s.intentID(), version, nil); err != nil {
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
// It returns the segment's placement record, nil when its committed
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
	expand := repair && seg.Thin
	damaged := len(d.missing) + len(d.corrupt)
	if !(repair && damaged > 0) && !expand {
		return nil, nil // nothing needs the segment's content
	}

	if !s.reconstruct(d) {
		if damaged > 0 {
			s.rep.Unrepairable = append(s.rep.Unrepairable, seg.ID)
			s.reg.Counter("scrub.unrepairable_segments").Inc()
		}
		return nil, nil
	}
	defer d.release()
	if err := s.ensureIntent(); err != nil {
		return nil, err
	}
	capBlocked, err := s.repairSegment(ctx, d)
	if err == nil && expand {
		var expBlocked bool
		expBlocked, err = s.expandThin(ctx, d)
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
	return d.placement(), nil
}

// ensureIntent journals the cycle's repair intent once, before the
// first block (repair or re-expansion) leaves this device.
func (s *cycle) ensureIntent() error {
	if s.journaled {
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
// the survey, content against the location's stamp.
func (s *cycle) checkSegment(ctx context.Context, seg *meta.Segment) (*segDamage, error) {
	d := &segDamage{
		seg:     seg,
		cur:     seg.Clone(),
		wrote:   make(map[int]bool),
		healthy: make(map[int][]byte),
		full:    make(map[string]bool),
	}
	rep := s.rep
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
		if meta.BlockSum(data) != loc.Checksum {
			rep.BlocksCorrupt++
			s.reg.Counter("scrub.blocks_corrupt").Inc()
			d.corrupt = append(d.corrupt, loc)
			continue
		}
		rep.BlocksVerified++
		s.reg.Counter("scrub.blocks_verified").Inc()
		if d.healthy[loc.BlockID] == nil {
			d.healthy[loc.BlockID] = data
		}
	}
	return d, nil
}

// reconstruct decodes the segment content from K verified copies,
// checks the result against the segment's content address (SegmentID)
// and leaves it in d with its block source, ready to be re-encoded; the
// caller must release d.
func (s *Scrubber) reconstruct(d *segDamage) bool {
	seg := d.seg
	coder, err := erasure.CoderFor(seg.K, seg.N)
	if err != nil || len(d.healthy) < seg.K {
		return false
	}
	blocks := make(map[int][]byte, seg.K)
	for _, id := range slices.Sorted(maps.Keys(d.healthy)) {
		if len(blocks) == seg.K {
			break
		}
		blocks[id] = d.healthy[id]
	}
	buf := erasure.GetBuffer(seg.K * coder.ShardSize(seg.Length))
	data, err := coder.DecodeInto(buf, blocks, seg.Length)
	if err != nil {
		erasure.PutBuffer(buf)
		return false
	}
	if chunker.SegmentID(data) != seg.ID {
		erasure.PutBuffer(data)
		s.reg.Counter("scrub.decode_sha_mismatch").Inc()
		return false
	}
	d.content, d.src = data, erasure.NewSource(coder, data, 0)
	return true
}

// repairSegment re-encodes and re-uploads every damaged copy into d's
// placement. A replacement goes to the damaged copy's own cloud when
// that is not out of quota — an idempotent overwrite of the committed
// path — falling back to the targets sched's rule admits over the
// placement so far. A copy no cloud may take is left for a later cycle.
// The result reports a copy left unrepaired purely for capacity: an
// eligible destination was quota-full.
func (s *cycle) repairSegment(ctx context.Context, d *segDamage) (bool, error) {
	capBlocked := false
	repaired := make(map[int]bool) // one replacement per block ID
	for _, loc := range append(slices.Clone(d.missing), d.corrupt...) {
		if repaired[loc.BlockID] {
			continue
		}
		repaired[loc.BlockID] = true
		cands, dropped := s.targets(d.cur.Blocks, loc.CloudID)
		if s.elig.AcceptsWrites(loc.CloudID) {
			cands = append([]string{loc.CloudID}, cands...)
		} else {
			// A quota-full cloud still HOLDS its copies fine — it just
			// cannot take the repair write.
			dropped = true
		}
		placed, sum, err := s.place(ctx, d, loc.BlockID, cands)
		if err != nil {
			return false, err
		}
		if placed == "" {
			capBlocked = capBlocked || dropped || len(d.full) > 0
			continue
		}
		s.rep.RepairedBlocks++
		s.reg.Counter("scrub.repaired_blocks").Inc()
		d.cur.Blocks[slices.Index(d.cur.Blocks, loc)] =
			meta.BlockLocation{BlockID: loc.BlockID, CloudID: placed, Checksum: sum}
		d.wrote[loc.BlockID] = true
	}
	return capBlocked, nil
}

// expandThin grows a thin (under-replicated) segment back toward its
// normal placement: missing block IDs, lowest first, are re-encoded
// from the verified content and uploaded to the targets sched's rule
// admits, into d's placement; the thin mark is cleared once the normal
// placement holds. The result reports a capacity block: the target
// could not be reached because eligible clouds are full.
func (s *cycle) expandThin(ctx context.Context, d *segDamage) (bool, error) {
	seg, base := d.seg, d.cur
	target := min(s.cfg.Params.NormalBlocks(), seg.N)
	placed := make(map[int]bool, len(base.Blocks))
	for _, b := range base.Blocks {
		placed[b.BlockID] = true
	}

	for blockID := 0; blockID < seg.N && len(placed) < target; blockID++ {
		if placed[blockID] {
			continue
		}
		cands, _ := s.targets(base.Blocks, "")
		landed, sum, err := s.place(ctx, d, blockID, cands)
		if err != nil {
			return false, err
		}
		if landed == "" {
			continue
		}
		base.AddBlockSum(blockID, landed, sum)
		placed[blockID] = true
		d.wrote[blockID] = true
		s.rep.ReexpandedBlocks++
		s.reg.Counter("scrub.reexpanded_blocks").Inc()
	}

	blocked := len(placed) < target
	if !blocked && base.Thin {
		base.Thin = false
		s.rep.ThinCleared++
		s.reg.Counter("scrub.thin_cleared").Inc()
	}
	return blocked, nil
}

// targets are the clouds one more block of a segment placed as blocks
// may be written to: those of the listed clouds but skip that sched's
// Targets rule admits, in its order, then filtered and ranked by
// eligibility (out-of-quota clouds dropped, Probing ones last: a probe
// is the last resort). The bool result reports that a cloud was
// dropped for capacity.
func (s *cycle) targets(blocks []meta.BlockLocation, skip string) ([]string, bool) {
	admitted := s.cfg.Params.Targets(blocks,
		slices.DeleteFunc(slices.Clone(s.listed), func(name string) bool { return name == skip }))
	ranked := s.elig.WriteTargets(admitted)
	return ranked, len(ranked) < len(admitted)
}

// place re-encodes one block of a reconstructed segment and uploads it
// to the first candidate that takes it, reporting where it landed (""
// when nowhere) and its checksum. Every attempt is journaled before
// the block leaves this device: a crash mid-upload must leave a record
// of where an orphan could sit. A candidate that rejects the write for
// quota joins d.full and is not tried again for this segment (the
// tracker learned of the rejection through the engine's cloud chain).
func (s *cycle) place(ctx context.Context, d *segDamage, blockID int, cands []string) (string, uint32, error) {
	for _, target := range cands {
		if d.full[target] {
			continue
		}
		payload, err := d.src.Block(blockID)
		if err != nil {
			return "", 0, err
		}
		if err := s.cfg.Journal.UpdatePlacements(s.intentID(), d.seg.ID, map[int]string{blockID: target}); err != nil {
			return "", 0, err
		}
		err = s.paced(ctx, target, func() error {
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

// placement is the segment's repair placement record: of the placement
// the cycle's writes leave, the locations of the block IDs they placed,
// and the thin verdict (re-expansion clears the mark, a
// capacity-blocked repair leaves it). Only those: a block ID the cycle
// did not write may have moved since the cycle read the image — another
// device's repair or re-expansion placed it elsewhere, and this
// device's next lock hold deleted the copy the cycle saw — and naming
// it would name a deleted block. Nil when the cycle wrote nothing and
// the verdict stands.
func (d *segDamage) placement() *meta.Change {
	if len(d.wrote) == 0 && d.cur.Thin == d.seg.Thin {
		return nil
	}
	wrote := slices.DeleteFunc(slices.Clone(d.cur.Blocks), func(b meta.BlockLocation) bool { return !d.wrote[b.BlockID] })
	return &meta.Change{Type: meta.ChangePlace, Path: d.seg.ID, Place: wrote, Thin: d.cur.Thin}
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
