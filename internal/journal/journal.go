// Package journal is UniDrive's write-ahead intent journal: the
// crash-consistency record for the two windows the paper's
// blocks-before-metadata protocol leaves open (§5.2, Algorithm 1).
//
// UniDrive uploads coded blocks freely BEFORE acquiring the quorum
// lock and committing metadata. A client that dies between the two
// leaks committed-nowhere blocks into every cloud's quota, and a
// client that dies while materializing a fetched update leaves a
// half-written folder the next scan would misread as local edits. The
// journal closes both windows: before any pass mutates shared state
// it persists an intent describing what is about to happen, updates
// it as placements land, marks it committed once the metadata commit
// is durable, and clears it when the pass completes. On startup the
// core layer replays surviving intents (core.Recover): committed
// intents trigger reclamation of unreferenced blocks, uncommitted
// upload intents are resumed (surviving blocks are adopted instead of
// re-uploaded) or their blocks reclaimed, and apply intents suppress
// half-applied files from being re-detected as local edits.
//
// The journal is one file, .unidrive/journal.json, inside the sync
// folder — a single file because Dir.ListAll never descends into
// .unidrive, so per-intent files could not be enumerated through the
// Folder interface. Every mutation rewrites the whole file; on
// folders implementing localfs.DurableWriter the rewrite is
// fsync+rename atomic, so a crash mid-update preserves the previous
// journal generation.
package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"unidrive/internal/localfs"
	"unidrive/internal/meta"
)

// Path is the journal file inside the sync folder, under UniDrive's
// private state prefix (never reported by the folder scanner).
const Path = localfs.StatePrefix + "journal.json"

// Intent kinds.
const (
	// KindUpload records a local-commit pass: blocks are (or are about
	// to be) in flight for a batch of local changes.
	KindUpload = "upload"
	// KindApply records a cloud-apply pass: files are being rewritten
	// in the local folder from a fetched metadata update.
	KindApply = "apply"
	// KindRepair records a scrub-repair pass (or a SetClouds
	// rebalance): replacement blocks for missing or corrupt copies are
	// (or are about to be) in flight, to be committed as placement
	// records (meta.ChangePlace). Placements carries the
	// repair targets; a crash before the commit leaves at worst
	// re-uploaded copies at their committed paths (harmless
	// overwrites) plus orphans at new locations, which recovery
	// reclaims.
	KindRepair = "repair"
)

// Intent states, in lifecycle order.
const (
	// StateUploading: the pass started; blocks may exist in the clouds
	// that no committed metadata references yet.
	StateUploading = "uploading"
	// StateCommitted: the metadata commit landed; any surveyed block
	// of the intent's segments that the committed image does not
	// reference is reclaimable surplus (reliability-phase extras from
	// a pass that died before its follow-up commit).
	StateCommitted = "committed"
)

// Intent is one journaled pass. Upload intents carry the full change
// batch so recovery can decide — by re-reading the local files —
// whether an interrupted upload is still worth resuming; apply
// intents carry the touched paths so recovery can recognize
// half-applied files.
type Intent struct {
	// ID identifies the intent; for uploads it is the change-batch
	// hash (BatchID), so a retried batch overwrites its stale record.
	ID string `json:"id"`
	// Kind is KindUpload or KindApply.
	Kind string `json:"kind"`
	// State is StateUploading or StateCommitted.
	State string `json:"state"`
	// Device is the journaling device (informational).
	Device string `json:"device"`
	// CreatedAt is when the pass started.
	CreatedAt time.Time `json:"createdAt"`
	// Changes is the full change batch of an upload intent.
	Changes []*meta.Change `json:"changes,omitempty"`
	// Placements records, per segment, the block placements known to
	// have landed (block ID -> cloud). Best effort: recovery verifies
	// against a live survey of the clouds, so a crash before the
	// placement update loses nothing.
	Placements map[string]map[int]string `json:"placements,omitempty"`
	// CommittedVersion is the metadata version the commit produced
	// (set with StateCommitted).
	CommittedVersion int64 `json:"committedVersion,omitempty"`
	// Released names the segments the commit released (set with
	// StateCommitted): their blocks are the committing pass's to delete
	// after the commit, and recovery's when it crashed first.
	Released []string `json:"released,omitempty"`
	// Paths lists the folder paths an apply intent is rewriting.
	Paths []string `json:"paths,omitempty"`
}

// SegmentIDs returns every segment ID the intent references — through
// its change batch and through recorded placements — sorted.
func (in *Intent) SegmentIDs() []string {
	seen := make(map[string]bool)
	for _, ch := range in.Changes {
		for _, seg := range ch.Segments {
			seen[seg.ID] = true
		}
	}
	for id := range in.Placements {
		seen[id] = true
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// BatchID derives the upload-intent ID for a change batch: the hex
// SHA-256 over the ordered, encoded changes. Identical batches (a
// requeued retry) map to the same intent.
func BatchID(changes []*meta.Change) string {
	h := sha256.New()
	for _, ch := range changes {
		if data, err := ch.Encode(); err == nil {
			h.Write(data)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// journalFile is the on-disk format.
type journalFile struct {
	Intents []*Intent `json:"intents"`
}

// Journal persists intents in the sync folder. All methods are safe
// for concurrent use; every mutation is persisted before it returns.
type Journal struct {
	folder localfs.Folder

	mu      sync.Mutex
	order   []string
	intents map[string]*Intent
}

// Open loads the journal from the folder. A missing file is an empty
// journal; an unparseable one (possible only on folders without
// durable writes) is reported via recovered=false with the journal
// reset to empty, so a damaged record degrades to the pre-journal
// behavior instead of wedging the client. A journal whose changes are
// in an old metadata format is refused with meta.ErrOldFormat and left
// in place: the folder must be re-synced.
func Open(folder localfs.Folder) (j *Journal, recovered bool, err error) {
	j = &Journal{folder: folder, intents: make(map[string]*Intent)}
	data, err := folder.ReadFile(Path)
	if errors.Is(err, localfs.ErrNotExist) {
		return j, true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("journal: reading %s: %w", Path, err)
	}
	var f journalFile
	if err := json.Unmarshal(data, &f); errors.Is(err, meta.ErrOldFormat) {
		return nil, false, fmt.Errorf("journal: %s: %w", Path, err)
	} else if err != nil {
		_ = folder.Remove(Path)
		return j, false, nil
	}
	for _, in := range f.Intents {
		if in.ID == "" {
			continue
		}
		if _, dup := j.intents[in.ID]; !dup {
			j.order = append(j.order, in.ID)
		}
		j.intents[in.ID] = in
	}
	return j, true, nil
}

// Len returns the number of active intents.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.intents)
}

// Active returns the active intents in begin order. The intents are
// deep-ish copies: mutating the returned records does not touch the
// journal.
func (j *Journal) Active() []*Intent {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*Intent, 0, len(j.intents))
	for _, id := range j.order {
		in := *j.intents[id]
		out = append(out, &in)
	}
	return out
}

// Begin persists a new intent before the pass it describes starts
// mutating shared state. An intent with the same ID (a retried batch)
// is replaced. The journal keeps its own copy of the batch's segment
// records: the pass goes on stamping its records with the blocks it
// lands while the journal is persisted from other goroutines (a lock
// hold's tail clears its intent beside the device's next pass). The
// blocks landed are journaled with UpdatePlacements.
func (j *Journal) Begin(in *Intent) error {
	if in.ID == "" {
		return fmt.Errorf("journal: intent without ID")
	}
	if in.State == "" {
		in.State = StateUploading
	}
	rec := *in
	rec.Changes = make([]*meta.Change, len(in.Changes))
	for i, ch := range in.Changes {
		c := *ch
		c.Segments = make([]*meta.Segment, len(ch.Segments))
		for k, seg := range ch.Segments {
			c.Segments[k] = seg.Clone()
		}
		rec.Changes[i] = &c
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.intents[in.ID]; !dup {
		j.order = append(j.order, in.ID)
	}
	j.intents[in.ID] = &rec
	return j.persistLocked()
}

// UpdatePlacements records landed block placements for one segment of
// an upload intent and persists the journal.
func (j *Journal) UpdatePlacements(id, segID string, placement map[int]string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	in, ok := j.intents[id]
	if !ok {
		return fmt.Errorf("journal: no intent %s", id)
	}
	if in.Placements == nil {
		in.Placements = make(map[string]map[int]string)
	}
	merged := in.Placements[segID]
	if merged == nil {
		merged = make(map[int]string, len(placement))
		in.Placements[segID] = merged
	}
	for b, c := range placement {
		merged[b] = c
	}
	return j.persistLocked()
}

// UpdatePlacementsBatch merges landed block placements for many
// segments of an upload intent and persists the journal ONCE. Large
// passes must use this instead of per-segment UpdatePlacements calls:
// every persist rewrites the whole journal — including the intent's
// full change batch — so N per-segment updates cost O(N·batch) bytes
// of serialization where one batched update costs O(batch).
func (j *Journal) UpdatePlacementsBatch(id string, placements map[string]map[int]string) error {
	if len(placements) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	in, ok := j.intents[id]
	if !ok {
		return fmt.Errorf("journal: no intent %s", id)
	}
	if in.Placements == nil {
		in.Placements = make(map[string]map[int]string, len(placements))
	}
	for segID, placement := range placements {
		merged := in.Placements[segID]
		if merged == nil {
			merged = make(map[int]string, len(placement))
			in.Placements[segID] = merged
		}
		for b, c := range placement {
			merged[b] = c
		}
	}
	return j.persistLocked()
}

// MarkCommitted transitions an intent to StateCommitted at the given
// metadata version, with the segments the commit released, and
// persists the journal.
func (j *Journal) MarkCommitted(id string, version int64, released []string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	in, ok := j.intents[id]
	if !ok {
		return fmt.Errorf("journal: no intent %s", id)
	}
	in.State = StateCommitted
	in.CommittedVersion = version
	in.Released = released
	return j.persistLocked()
}

// Clear removes a completed (or replayed) intent and persists the
// journal; when the last intent goes, the journal file is removed.
// Clearing an unknown ID is a no-op.
func (j *Journal) Clear(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.intents[id]; !ok {
		return nil
	}
	delete(j.intents, id)
	kept := j.order[:0]
	for _, o := range j.order {
		if o != id {
			kept = append(kept, o)
		}
	}
	j.order = kept
	return j.persistLocked()
}

// persistLocked rewrites the journal file, durably when the folder
// supports it.
func (j *Journal) persistLocked() error {
	if len(j.intents) == 0 {
		if err := j.folder.Remove(Path); err != nil {
			return fmt.Errorf("journal: clearing %s: %w", Path, err)
		}
		return nil
	}
	f := journalFile{Intents: make([]*Intent, 0, len(j.intents))}
	for _, id := range j.order {
		f.Intents = append(f.Intents, j.intents[id])
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return fmt.Errorf("journal: encoding: %w", err)
	}
	if dw, ok := j.folder.(localfs.DurableWriter); ok {
		if err := dw.WriteFileDurable(Path, data, time.Time{}); err != nil {
			return fmt.Errorf("journal: writing %s: %w", Path, err)
		}
		return nil
	}
	if err := j.folder.WriteFile(Path, data, time.Time{}); err != nil {
		return fmt.Errorf("journal: writing %s: %w", Path, err)
	}
	return nil
}
