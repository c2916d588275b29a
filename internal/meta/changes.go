package meta

import (
	"encoding/json"
	"fmt"
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
	// ChangeRelocate rewrites one segment's block placement without
	// touching any file entry — committed after an add/remove-cloud
	// rebalance (paper §6.2). Path carries the segment ID.
	ChangeRelocate
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
	case ChangeRelocate:
		return "relocate"
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
	case ChangeDelete:
		if c.Snapshot != nil {
			return fmt.Errorf("meta: delete change for %q carries a snapshot", c.Path)
		}
	case ChangeRelocate:
		if c.Snapshot != nil {
			return fmt.Errorf("meta: relocate change for %q carries a snapshot", c.Path)
		}
		if len(c.Segments) != 1 || c.Segments[0].ID != c.Path {
			return fmt.Errorf("meta: relocate change for %q must carry exactly that segment", c.Path)
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
	if c.Snapshot != nil {
		if err := checkIDs(c.Snapshot.SegmentIDs...); err != nil {
			return err
		}
	}
	return checkSegments(c.Segments...)
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
// installs the snapshot (or tombstone) and leaves refcount
// maintenance to RecountRefs.
func (im *Image) Apply(c *Change, device string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Type == ChangeRelocate {
		// Replace (not union) the segment's placement.
		im.segments.Put(c.Path, c.Segments[0].Clone())
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
		if c.Type == ChangeRelocate {
			// Replace (not union) the segment's placement, preserving the
			// live refcount the relocate change does not know.
			seg := c.Segments[0].Clone()
			if old, ok := out.segments.Get(c.Path); ok {
				seg.RefCount = old.RefCount
			}
			out.segments.Put(c.Path, seg)
			owned[c.Path], touched[c.Path] = true, true
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
			seg := segFor(cs.ID)
			for _, b := range cs.Blocks {
				seg.AddBlockSum(b.BlockID, b.CloudID, b.Checksum)
			}
			if seg.Length == 0 && cs.Length != 0 {
				seg.Length, seg.K, seg.N = cs.Length, cs.K, cs.N
			}
			// Same thin union rule as UpsertSegment.
			seg.Thin = seg.Thin && cs.Thin
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
