package meta

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ChangeType classifies a local file system change.
type ChangeType int

// Change types.
const (
	ChangeAdd ChangeType = iota + 1
	ChangeEdit
	ChangeDelete
	// changeWholeRecord (4) replaced a segment's whole pool record: the
	// format before placement records, refused on decoding.
	changeWholeRecord
	// ChangePlace is a placement record: it moves one segment's block
	// locations without touching any file entry (paper §6.2: the
	// Cloud-ID fields filled in at reliability, a trim, a rebalance, a
	// repair). Path carries the segment ID; Place, Drop and Thin are all
	// it carries besides.
	ChangePlace
)

// String names the change type.
func (t ChangeType) String() string {
	switch t {
	case ChangeAdd:
		return "add"
	case ChangeEdit:
		return "edit"
	case ChangeDelete:
		return "delete"
	case ChangePlace:
		return "place"
	default:
		return fmt.Sprintf("ChangeType(%d)", int(t))
	}
}

// Change is one record in the ChangedFileList: a file added, edited
// or deleted in the local sync folder since the last synchronization.
type Change struct {
	Type ChangeType `json:"type"`
	Path string     `json:"path"`
	// Snapshot carries the new file state for add/edit; nil for
	// delete.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	// Segments carries pool records for segments newly created by
	// this change (with their initial block locations, filled in as
	// uploads complete).
	Segments []*Segment `json:"segments,omitempty"`
	// Time is the local observation time (informational).
	Time time.Time `json:"time"`
	// Place lists the locations a placement record places, each
	// replacing every location of its block ID; Drop the block IDs it
	// drops; Thin is its verdict on the segment (Segment.Thin).
	Place []BlockLocation `json:"place,omitempty"`
	Drop  []int           `json:"drop,omitempty"`
	Thin  bool            `json:"thin,omitempty"`
}

// Validate checks structural invariants of the change.
func (c *Change) Validate() error {
	if c == nil {
		return fmt.Errorf("meta: nil change")
	}
	if c.Path == "" {
		return fmt.Errorf("meta: change with empty path")
	}
	for _, seg := range c.Segments {
		if seg == nil {
			return fmt.Errorf("meta: change for %q carries a nil segment", c.Path)
		}
	}
	switch c.Type {
	case ChangeAdd, ChangeEdit:
		if c.Snapshot == nil {
			return fmt.Errorf("meta: %v change for %q without snapshot", c.Type, c.Path)
		}
		if c.Snapshot.Path != c.Path {
			return fmt.Errorf("meta: change path %q != snapshot path %q", c.Path, c.Snapshot.Path)
		}
	case ChangeDelete, ChangePlace:
		if c.Snapshot != nil || c.Type == ChangePlace && len(c.Segments) > 0 {
			return fmt.Errorf("meta: %v change for %q carries what it cannot: a snapshot, or segments for a placement", c.Type, c.Path)
		}
	default:
		return fmt.Errorf("meta: unknown change type %d", int(c.Type))
	}
	return nil
}

// UnmarshalJSON decodes a change and refuses one in an old format
// (ErrOldFormat): every persisted change — a delta record, the local
// checkpoint's, a journal intent's — comes in through here.
func (c *Change) UnmarshalJSON(data []byte) error {
	type plain Change // the same fields, without this method
	if err := json.Unmarshal(data, (*plain)(c)); err != nil {
		return err
	}
	switch {
	case c.Type == changeWholeRecord:
		return fmt.Errorf("%w (a whole-record relocate of segment %s)", ErrOldFormat, c.Path)
	case c.Type == ChangePlace:
		return checkSegments(&Segment{ID: c.Path, Blocks: c.Place})
	case c.Snapshot != nil:
		if err := checkIDs(c.Snapshot.SegmentIDs...); err != nil {
			return err
		}
	}
	return checkSegments(c.Segments...)
}

// MarshalJSON writes a placement record with only the fields it
// carries, and every other change in its plain form.
func (c Change) MarshalJSON() ([]byte, error) {
	type plain Change // the same fields, without this method
	if c.Type != ChangePlace {
		return json.Marshal(plain(c))
	}
	return json.Marshal(struct {
		Type  ChangeType      `json:"type"`
		Path  string          `json:"path"`
		Place []BlockLocation `json:"place,omitempty"`
		Drop  []int           `json:"drop,omitempty"`
		Thin  bool            `json:"thin,omitempty"`
	}{c.Type, c.Path, c.Place, c.Drop, c.Thin})
}

// Encode serializes the change as one JSON line (no trailing newline).
func (c *Change) Encode() ([]byte, error) {
	data, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("meta: encoding change: %w", err)
	}
	return data, nil
}

// Apply applies the change to the image: upserts any new segments,
// installs the snapshot (or tombstone), lays a placement record on its
// segment if the segment lives, and leaves refcount maintenance to
// RecountRefs.
func (im *Image) Apply(c *Change, device string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Type == ChangePlace {
		if seg, ok := im.segments.Get(c.Path); ok {
			seg.place(c)
		}
		return nil
	}
	for _, seg := range c.Segments {
		im.UpsertSegment(seg)
	}
	switch c.Type {
	case ChangeAdd, ChangeEdit:
		im.SetSnapshot(c.Snapshot.Clone())
	case ChangeDelete:
		im.Tombstone(c.Path, device, c.Time)
	}
	return nil
}

// ApplyCOW returns a NEW image with the changes applied, leaving im
// untouched: the result shares every unchanged FileEntry and Segment
// pointer with im (copy-on-write), refcounts are maintained
// incrementally, and touched segments whose count reaches zero are
// dropped from the pool. For an image with exact refcounts (a decoded
// base, anything RecountRefs ran over, or ApplyCOW's own output) the
// result is equivalent to Clone + Apply-per-change + RecountRefs +
// DropSegments — at O(changes) entry work plus O(changes) copied map
// shards, instead of an O(folder) deep clone and recount. This is the
// commit hot path for event-driven sync: a small commit into a large
// folder must not replay, re-walk, or even re-copy the whole image.
func (im *Image) ApplyCOW(changes []*Change, device string) (*Image, error) {
	// The shard maps are shared wholesale; the first write into a
	// shard clones just that shard (~1/64 of the folder), so a small
	// commit copies a few hundred entries regardless of folder size.
	out := im.cloneShared()

	// owned tracks segments already cloned into out (safe to mutate);
	// touched tracks segments whose refcount may have changed.
	owned := make(map[string]bool)
	touched := make(map[string]bool)
	segFor := func(id string) *Segment {
		seg, ok := out.segments.Get(id)
		if !ok {
			return nil
		}
		if !owned[id] {
			seg = seg.Clone()
			out.segments.Put(id, seg)
			owned[id] = true
		}
		touched[id] = true
		return seg
	}
	addRefs := func(ids []string, delta int) {
		for _, id := range ids {
			if seg := segFor(id); seg != nil {
				seg.RefCount += delta
			}
		}
	}

	for _, c := range changes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if c.Type == ChangePlace {
			if seg := segFor(c.Path); seg != nil {
				seg.place(c)
			}
			continue
		}
		for _, cs := range c.Segments {
			if _, ok := out.segments.Get(cs.ID); !ok {
				seg := cs.Clone()
				seg.RefCount = 0 // counted below via the snapshot
				out.segments.Put(cs.ID, seg)
				owned[cs.ID], touched[cs.ID] = true, true
				continue
			}
			segFor(cs.ID).union(cs)
		}
		// The entry is replaced wholesale (same as SetSnapshot /
		// Tombstone): every old snapshot's references go, the new
		// snapshot's come.
		if old, _ := out.files.Get(c.Path); old != nil {
			for _, snap := range old.Snapshots {
				if !snap.Deleted {
					addRefs(snap.SegmentIDs, -1)
				}
			}
		}
		switch c.Type {
		case ChangeAdd, ChangeEdit:
			snap := c.Snapshot.Clone()
			out.files.Put(c.Path, &FileEntry{Path: c.Path, Snapshots: []*Snapshot{snap}})
			addRefs(snap.SegmentIDs, +1)
		case ChangeDelete:
			out.files.Put(c.Path, &FileEntry{Path: c.Path, Snapshots: []*Snapshot{
				{Path: c.Path, Device: device, ModTime: c.Time, Deleted: true},
			}})
		}
	}

	// Only touched segments can have dropped to zero: im had exact
	// counts, so an untouched segment's count is unchanged and nonzero.
	for id := range touched {
		if seg, ok := out.segments.Get(id); ok && seg.RefCount <= 0 {
			out.segments.Delete(id)
		}
	}
	return out, nil
}

// place lays a placement record on the segment: every location of a
// block ID the record drops or places goes, the record's locations
// come, and its thin verdict holds.
func (s *Segment) place(c *Change) {
	s.Blocks = slices.DeleteFunc(s.Blocks, func(b BlockLocation) bool {
		return slices.Contains(c.Drop, b.BlockID) ||
			slices.ContainsFunc(c.Place, func(p BlockLocation) bool { return p.BlockID == b.BlockID })
	})
	for _, b := range c.Place {
		s.AddBlockSum(b.BlockID, b.CloudID, b.Checksum)
	}
	s.Thin = c.Thin
}

// PlaceChange returns the placement record that takes seg's block list
// to to's, with to's thin verdict: it places anew every location of a
// block ID whose locations differ, and drops the block IDs to lacks.
// Nil when the two agree.
func PlaceChange(seg, to *Segment) *Change {
	c := &Change{Type: ChangePlace, Path: seg.ID, Thin: to.Thin}
	of := func(s *Segment, id int) []BlockLocation {
		return slices.DeleteFunc(slices.Clone(s.Blocks), func(b BlockLocation) bool { return b.BlockID != id })
	}
	for _, b := range to.Blocks {
		if !slices.Equal(of(seg, b.BlockID), of(to, b.BlockID)) {
			c.Place = append(c.Place, b)
		}
	}
	for _, b := range seg.Blocks {
		if len(of(to, b.BlockID)) == 0 && !slices.Contains(c.Drop, b.BlockID) {
			c.Drop = append(c.Drop, b.BlockID)
		}
	}
	if len(c.Place) == 0 && len(c.Drop) == 0 && seg.Thin == to.Thin {
		return nil
	}
	return c
}

// ChangedFileList accumulates local changes between synchronizations
// (paper §5.1). It is safe for concurrent use: the file system
// watcher appends while the sync loop drains.
//
// Consecutive changes to the same path are coalesced to the latest
// state ("aggregate and commit series of changes to the image at
// once"), except that an add followed by a delete still records the
// delete (the path may already exist in the cloud image).
type ChangedFileList struct {
	mu      sync.Mutex
	order   []string
	changes map[string]*Change
}

// NewChangedFileList returns an empty list.
func NewChangedFileList() *ChangedFileList {
	return &ChangedFileList{changes: make(map[string]*Change)}
}

// Record adds a change, coalescing with any earlier change to the
// same path.
func (l *ChangedFileList) Record(c *Change) error {
	if err := c.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, seen := l.changes[c.Path]; !seen {
		l.order = append(l.order, c.Path)
	}
	l.changes[c.Path] = c
	return nil
}

// Len returns the number of pending (coalesced) changes.
func (l *ChangedFileList) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.changes)
}

// Drain returns the pending changes and clears the list — called
// after the changes were successfully committed to the multi-cloud
// ("ChangedFileList will be cleared after each successful
// synchronization").
func (l *ChangedFileList) Drain() []*Change {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Change, 0, len(l.changes))
	for _, p := range l.order {
		out = append(out, l.changes[p])
	}
	l.order = nil
	l.changes = make(map[string]*Change)
	return out
}

// Requeue puts changes back at the front of the list after a failed
// commit, preserving any newer changes recorded meanwhile (which win
// coalescing for the same path).
func (l *ChangedFileList) Requeue(changes []*Change) {
	l.mu.Lock()
	defer l.mu.Unlock()
	newOrder := make([]string, 0, len(changes)+len(l.order))
	newChanges := make(map[string]*Change, len(changes)+len(l.changes))
	for _, c := range changes {
		if _, ok := newChanges[c.Path]; !ok {
			newOrder = append(newOrder, c.Path)
		}
		newChanges[c.Path] = c
	}
	// Newer changes recorded since the drain override requeued ones.
	for _, p := range l.order {
		if _, ok := newChanges[p]; !ok {
			newOrder = append(newOrder, p)
		}
		newChanges[p] = l.changes[p]
	}
	l.order = newOrder
	l.changes = newChanges
}
