// Package meta implements UniDrive's metadata model (paper §5.1).
//
// UniDrive separates content data from metadata. Content data is
// chunked into segments, erasure coded into immutable blocks, and
// uploaded freely and concurrently by any device; consistency of user
// files is ensured purely through consistency of the metadata, which
// is committed under the quorum lock.
//
// The metadata has three parts:
//
//   - The SyncFolderImage (Image): one single file capturing the
//     complete state — the sync folder hierarchy with a snapshot per
//     file, and the segment pool mapping segment IDs to their coded
//     blocks' locations (<Block-ID, Cloud-ID>). Unlike per-file
//     metadata designs (DepSky, MetaSync), a single image file
//     drastically reduces metadata overhead for multi-file sync.
//   - The segment pool with reference counting, which gives
//     content-level deduplication across files and versions.
//   - The ChangedFileList: the record of local edits since the last
//     synchronization, cleared after each successful sync.
//
// This package also implements the three-way merge with ΔC/ΔL tree
// comparison and conflict retention (paper §5.2).
package meta

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"iter"
	"sort"
	"strconv"
	"strings"
	"time"
)

// BlockLocation records where one coded block of a segment is stored:
// the block's index within the erasure code (its sequence number in
// the scope of the segment) and the cloud holding it. The block's
// filename in the cloud is "<segment-ID>.<Block-ID>".
type BlockLocation struct {
	BlockID int    `json:"blockId"`
	CloudID string `json:"cloudId"`
	// Checksum is the CRC-32C of the block's content (see BlockSum),
	// stamped at encode time and verified on every download. Every
	// location carries one: decoding refuses a location without it
	// (ErrOldFormat).
	Checksum uint32 `json:"crc,omitempty"`
}

// ErrOldFormat is the decoding error for metadata written in a format
// this version does not read: a block location without a checksum
// (before the integrity format) or a segment named by its SHA-1
// (before segments were named by SHA-256). Neither is guessed at: the
// folder must be re-synced from its files.
var ErrOldFormat = errors.New("meta: the metadata predates the current format; re-sync the folder")

// checkSegments refuses segments in an old format: named by SHA-1, or
// naming a location without a checksum.
func checkSegments(segs ...*Segment) error {
	for _, s := range segs {
		if s == nil {
			continue // Change.Validate's to refuse
		}
		if err := checkIDs(s.ID); err != nil {
			return err
		}
		for _, b := range s.Blocks {
			if b.Checksum == 0 {
				return fmt.Errorf("%w (segment %s, block %d on %s has no checksum)", ErrOldFormat, s.ID, b.BlockID, b.CloudID)
			}
		}
	}
	return nil
}

// checkIDs refuses segment IDs of the SHA-1 era with ErrOldFormat: 40
// hex digits, where chunker.SegmentID gives 64.
func checkIDs(ids ...string) error {
	for _, id := range ids {
		if len(id) == 40 && strings.Trim(id, "0123456789abcdef") == "" {
			return fmt.Errorf("%w (segment %s is named by SHA-1)", ErrOldFormat, id)
		}
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockSum returns the content checksum (CRC-32C) of one coded block.
// The zero value is reserved to mean "no checksum", so the rare
// content whose CRC is genuinely 0 maps to 1; both the stamping and
// the verifying side go through this function, so the mapping is
// invisible.
func BlockSum(data []byte) uint32 {
	if s := crc32.Checksum(data, castagnoli); s != 0 {
		return s
	}
	return 1
}

// Segment describes one content-addressed segment in the pool.
type Segment struct {
	// ID is the hex SHA-256 of the segment content (chunker.SegmentID).
	ID string `json:"id"`
	// Length is the original (unpadded) segment length in bytes,
	// needed to strip erasure-code padding on decode.
	Length int `json:"length"`
	// K is the number of blocks required to reconstruct the segment.
	K int `json:"k"`
	// N is the total number of coded blocks the segment's code can
	// produce (the over-provisioning ceiling).
	N int `json:"n"`
	// RefCount is the number of snapshots referencing this segment
	// (dedup via reference counting, paper §6.1).
	RefCount int `json:"refCount"`
	// Blocks lists where coded blocks are currently stored. Multiple
	// blocks may live on the same cloud.
	Blocks []BlockLocation `json:"blocks"`
	// Thin marks the segment under-replicated: it holds at least K
	// blocks (readable) but fewer than its full fair-share placement —
	// committed at availability, before the slowest clouds' blocks
	// landed, or short because cloud quotas were exhausted. A placement
	// record states the verdict anew: the next lock hold's, recording
	// the blocks that landed after the commit, or a scrub's or
	// rebalance's that re-expands the segment once capacity returns.
	Thin bool `json:"thin,omitempty"`
}

// BlockName returns the cloud filename for block blockID of segment
// segID.
func BlockName(segID string, blockID int) string {
	return fmt.Sprintf("%s.%d", segID, blockID)
}

// ParseBlockName splits a cloud block filename "<segment-ID>.<Block-ID>"
// back into its parts. ok is false for names that are not block files.
func ParseBlockName(name string) (segID string, blockID int, ok bool) {
	i := strings.LastIndexByte(name, '.')
	if i <= 0 || i == len(name)-1 {
		return "", 0, false
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return "", 0, false
	}
	return name[:i], n, true
}

// HasBlock reports whether the segment records blockID on cloudID.
func (s *Segment) HasBlock(blockID int, cloudID string) bool {
	for _, b := range s.Blocks {
		if b.BlockID == blockID && b.CloudID == cloudID {
			return true
		}
	}
	return false
}

// AddBlockSum records a block location together with its content
// checksum, unless the location is already recorded: block content is
// immutable, so a recorded sum is never overwritten — a disagreement
// means one side is wrong, and the scrubber settles it against the
// actual bytes.
func (s *Segment) AddBlockSum(blockID int, cloudID string, sum uint32) {
	if !s.HasBlock(blockID, cloudID) {
		s.Blocks = append(s.Blocks, BlockLocation{BlockID: blockID, CloudID: cloudID, Checksum: sum})
	}
}

// BlockSum returns the recorded checksum for blockID, or 0 when the
// segment records no copy of it. Block content is determined by
// (segment, blockID) alone, so any location's sum speaks for all.
func (s *Segment) BlockSum(blockID int) uint32 {
	for _, b := range s.Blocks {
		if b.BlockID == blockID {
			return b.Checksum
		}
	}
	return 0
}

// Sums returns blockID → recorded checksum for every block the
// segment records.
func (s *Segment) Sums() map[int]uint32 {
	out := make(map[int]uint32, len(s.Blocks))
	for _, b := range s.Blocks {
		out[b.BlockID] = b.Checksum
	}
	return out
}

// Clone returns a deep copy of the segment.
func (s *Segment) Clone() *Segment {
	out := *s
	out.Blocks = append([]BlockLocation(nil), s.Blocks...)
	return &out
}

// Snapshot summarizes one version of one file (paper Fig 6): full
// path, timestamp, size, and the ordered list of segment IDs whose
// concatenation is the file content.
type Snapshot struct {
	// Path is the file's slash-separated path relative to the sync
	// folder root.
	Path string `json:"path"`
	// Size is the file length in bytes.
	Size int64 `json:"size"`
	// ModTime is the local modification time on the device that made
	// the snapshot. It is informational: UniDrive never orders events
	// by cross-device timestamps.
	ModTime time.Time `json:"modTime"`
	// Device is the device that created this snapshot.
	Device string `json:"device"`
	// SegmentIDs lists the file's segments in order.
	SegmentIDs []string `json:"segmentIds"`
	// Deleted marks a tombstone: the file was removed. Tombstones
	// let the merge distinguish "deleted" from "never existed".
	Deleted bool `json:"deleted,omitempty"`
}

// ContentEquals reports whether two snapshots describe identical
// content (same segments, size and deletion state) regardless of who
// made them or when.
func (s *Snapshot) ContentEquals(o *Snapshot) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Deleted != o.Deleted || s.Size != o.Size || len(s.SegmentIDs) != len(o.SegmentIDs) {
		return false
	}
	for i := range s.SegmentIDs {
		if s.SegmentIDs[i] != o.SegmentIDs[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	out := *s
	out.SegmentIDs = append([]string(nil), s.SegmentIDs...)
	return &out
}

// FileEntry is the image's record for one path. It normally holds a
// single snapshot; after a conflicting concurrent update it retains
// both versions until the user resolves the conflict (paper §5.2:
// "we retain both updates in the merged metadata").
type FileEntry struct {
	Path      string      `json:"path"`
	Snapshots []*Snapshot `json:"snapshots"`
}

// Current returns the entry's primary snapshot (the first), or nil.
func (e *FileEntry) Current() *Snapshot {
	if e == nil || len(e.Snapshots) == 0 {
		return nil
	}
	return e.Snapshots[0]
}

// Clone returns a deep copy of the entry.
func (e *FileEntry) Clone() *FileEntry {
	out := &FileEntry{Path: e.Path, Snapshots: make([]*Snapshot, len(e.Snapshots))}
	for i, s := range e.Snapshots {
		out.Snapshots[i] = s.Clone()
	}
	return out
}

// Image is the SyncFolderImage: the single metadata file capturing
// the sync folder hierarchy and the segment pool. The two maps are
// sharded with per-shard copy-on-write (see shardMap) so that
// ApplyCOW — the commit hot path — costs O(changes), not O(folder);
// access them through Lookup/AllFiles/Segment/AllSegments and the
// mutators below.
type Image struct {
	// Version increases by one with every committed metadata update.
	Version int64 `json:"version"`
	// Device is the device that committed this version.
	Device string `json:"device"`
	// Commit names the commit that produced this version (the record's
	// ID, deltasync): two attempts at one version differ here, so a
	// version a failed commit left on a minority of clouds is told apart
	// from the one that replaced it. Empty at genesis and in metadata
	// written before commits were named.
	Commit string `json:"commit,omitempty"`

	files    *shardMap[*FileEntry]
	segments *shardMap[*Segment]
}

// NewImage returns an empty image at version 0.
func NewImage() *Image {
	return &Image{
		files:    &shardMap[*FileEntry]{},
		segments: &shardMap[*Segment]{},
	}
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := NewImage()
	out.Version = im.Version
	out.Device = im.Device
	out.Commit = im.Commit
	for p, e := range im.files.All() {
		out.files.Put(p, e.Clone())
	}
	for id, s := range im.segments.All() {
		out.segments.Put(id, s.Clone())
	}
	return out
}

// cloneShared returns a new image sharing im's map shards
// copy-on-write; mutating either image's maps clones only the
// touched shards. Entry and segment values stay shared.
func (im *Image) cloneShared() *Image {
	return &Image{
		Version:  im.Version,
		Device:   im.Device,
		Commit:   im.Commit,
		files:    im.files.CloneShared(),
		segments: im.segments.CloneShared(),
	}
}

// Paths returns the image's file paths in sorted order, excluding
// tombstoned entries.
func (im *Image) Paths() []string {
	out := make([]string, 0, im.files.Len())
	for p, e := range im.files.All() {
		if cur := e.Current(); cur != nil && !cur.Deleted {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Lookup returns the entry for path, or nil.
func (im *Image) Lookup(path string) *FileEntry {
	e, _ := im.files.Get(path)
	return e
}

// NumFiles returns the number of file entries (including tombstones).
func (im *Image) NumFiles() int { return im.files.Len() }

// AllFiles iterates every path -> entry pair, in unspecified order.
func (im *Image) AllFiles() iter.Seq2[string, *FileEntry] { return im.files.All() }

// Segment returns the pool segment with the given ID.
func (im *Image) Segment(id string) (*Segment, bool) { return im.segments.Get(id) }

// AllSegments iterates every ID -> segment pair, in unspecified order.
func (im *Image) AllSegments() iter.Seq2[string, *Segment] { return im.segments.All() }

// SegmentIDs returns the IDs of the segment pool in sorted order — the
// deterministic walk order of every maintenance pass.
func (im *Image) SegmentIDs() []string {
	out := make([]string, 0, im.segments.Len())
	for id := range im.segments.All() {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SetSnapshot replaces the entry for snap.Path with the single given
// snapshot (resolving any retained conflict versions).
func (im *Image) SetSnapshot(snap *Snapshot) {
	im.files.Put(snap.Path, &FileEntry{Path: snap.Path, Snapshots: []*Snapshot{snap}})
}

// Tombstone marks path deleted by the given device.
func (im *Image) Tombstone(path, device string, now time.Time) {
	im.SetSnapshot(&Snapshot{Path: path, Device: device, ModTime: now, Deleted: true})
}

// UpsertSegment inserts seg if absent, or unions its block locations
// into the existing record. Refcounts are not touched; call
// RecountRefs after a batch of structural changes.
func (im *Image) UpsertSegment(seg *Segment) {
	if existing, ok := im.segments.Get(seg.ID); ok {
		existing.union(seg)
	} else {
		im.segments.Put(seg.ID, seg.Clone())
	}
}

// union adds o's block locations to the segment's, and its code when
// the segment names none. Blocks only union upward: the segment stays
// thin only while both records believe it is.
func (s *Segment) union(o *Segment) {
	for _, b := range o.Blocks {
		s.AddBlockSum(b.BlockID, b.CloudID, b.Checksum)
	}
	if s.Length == 0 && o.Length != 0 {
		s.Length, s.K, s.N = o.Length, o.K, o.N
	}
	s.Thin = s.Thin && o.Thin
}

// RecountRefs recomputes every segment's RefCount from the snapshots
// currently in the image (including retained conflict versions, whose
// content must stay recoverable). It returns the IDs of segments
// whose count dropped to zero. The sync path keeps counts exact
// incrementally (ApplyCOW); this full recount is the reference its
// tests compare against.
// It mutates segment values in place, so it must only run on images
// with owned values (fresh from Clone or DecodeImage), never on ones
// sharing entries copy-on-write.
func (im *Image) RecountRefs() []string {
	for _, seg := range im.segments.All() {
		seg.RefCount = 0
	}
	for _, e := range im.files.All() {
		for _, snap := range e.Snapshots {
			if snap.Deleted {
				continue
			}
			for _, id := range snap.SegmentIDs {
				if seg, ok := im.segments.Get(id); ok {
					seg.RefCount++
				}
			}
		}
	}
	var dead []string
	for id, seg := range im.segments.All() {
		if seg.RefCount == 0 {
			dead = append(dead, id)
		}
	}
	sort.Strings(dead)
	return dead
}

// DropSegments removes the given segment IDs from the pool.
func (im *Image) DropSegments(ids []string) {
	for _, id := range ids {
		im.segments.Delete(id)
	}
}

// imageJSON is the wire form of Image: plain maps, the same JSON
// shape the flat-map representation produced.
type imageJSON struct {
	Version  int64                 `json:"version"`
	Device   string                `json:"device"`
	Commit   string                `json:"commit,omitempty"`
	Files    map[string]*FileEntry `json:"files"`
	Segments map[string]*Segment   `json:"segments"`
}

// MarshalJSON flattens the sharded maps into the stable wire form.
func (im *Image) MarshalJSON() ([]byte, error) {
	return json.Marshal(imageJSON{
		Version:  im.Version,
		Device:   im.Device,
		Commit:   im.Commit,
		Files:    im.files.flatten(),
		Segments: im.segments.flatten(),
	})
}

// UnmarshalJSON parses the wire form into sharded maps.
func (im *Image) UnmarshalJSON(data []byte) error {
	var w imageJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	im.Version = w.Version
	im.Device = w.Device
	im.Commit = w.Commit
	im.files = &shardMap[*FileEntry]{}
	im.segments = &shardMap[*Segment]{}
	// A JSON null decodes to a nil pointer, which every walker of the
	// image would dereference, and an old format could not be verified:
	// reject both here, at the one place outside bytes become an Image.
	for p, e := range w.Files {
		if e == nil {
			return fmt.Errorf("meta: null entry for %q", p)
		}
		for _, snap := range e.Snapshots {
			if snap == nil {
				return fmt.Errorf("meta: null snapshot in entry %q", p)
			}
			if err := checkIDs(snap.SegmentIDs...); err != nil {
				return err
			}
		}
		im.files.Put(p, e)
	}
	for id, s := range w.Segments {
		if s == nil {
			return fmt.Errorf("meta: null segment %q", id)
		}
		if err := checkSegments(s); err != nil {
			return err
		}
		im.segments.Put(id, s)
	}
	return nil
}

// Encode serializes the image to JSON. The caller encrypts the result
// (metacrypt) before uploading it.
func (im *Image) Encode() ([]byte, error) {
	data, err := json.Marshal(im)
	if err != nil {
		return nil, fmt.Errorf("meta: encoding image: %w", err)
	}
	return data, nil
}

// DecodeImage parses an image serialized by Encode.
func DecodeImage(data []byte) (*Image, error) {
	im := NewImage()
	if err := json.Unmarshal(data, im); err != nil {
		return nil, fmt.Errorf("meta: decoding image: %w", err)
	}
	return im, nil
}

// Version file support (paper §5.2): a tiny file used to detect
// pending cloud updates without downloading the metadata. It contains
// the committing device's name, a commit counter and the commit's ID —
// no global clock is needed; any difference from the locally known
// version signals an update.

// VersionStamp is the content of the version file. Commit names the
// commit (Image.Commit): a version number alone does not, since a
// commit that failed to reach a quorum leaves its version on the
// clouds it did reach, and the retry takes the same number.
type VersionStamp struct {
	Device  string `json:"device"`
	Version int64  `json:"version"`
	Commit  string `json:"commit,omitempty"`
}

// Encode serializes the stamp.
func (v VersionStamp) Encode() ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("meta: encoding version stamp: %w", err)
	}
	return data, nil
}

// DecodeVersionStamp parses a version file.
func DecodeVersionStamp(data []byte) (VersionStamp, error) {
	var v VersionStamp
	if err := json.Unmarshal(data, &v); err != nil {
		return VersionStamp{}, fmt.Errorf("meta: decoding version stamp: %w", err)
	}
	return v, nil
}

// Stamp returns the image's version stamp.
func (im *Image) Stamp() VersionStamp {
	return VersionStamp{Device: im.Device, Version: im.Version, Commit: im.Commit}
}
