// Package localfs abstracts the local sync folder that UniDrive
// watches and writes (paper §4, "local file system interface").
//
// Two implementations are provided: Dir, backed by a real directory
// on the operating system, and Mem, an in-memory folder used by the
// simulation experiments (where hundreds of devices exist in one
// process) and by tests.
//
// Change detection is a polling Scanner rather than OS-specific
// notification: it compares successive folder states and emits the
// paper's ChangedFileList records (add / edit / delete).
package localfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"unidrive/internal/cloud"
)

// ErrNotExist reports a missing file.
var ErrNotExist = errors.New("localfs: file does not exist")

// FileInfo describes one file in the folder.
type FileInfo struct {
	// Path is the slash-separated path relative to the folder root.
	Path string
	// Size is the file length in bytes.
	Size int64
	// ModTime is the local modification time.
	ModTime time.Time
}

// Folder is the sync-folder contract used by the UniDrive client.
// Implementations must be safe for concurrent use.
type Folder interface {
	// ReadFile returns the content of the file at path, or an error
	// wrapping ErrNotExist.
	ReadFile(path string) ([]byte, error)
	// WriteFile creates or replaces the file at path, creating parent
	// directories as needed.
	WriteFile(path string, data []byte, modTime time.Time) error
	// Remove deletes the file at path. Removing a missing file is not
	// an error (sync may race with the user).
	Remove(path string) error
	// Stat returns the file's info, or an error wrapping ErrNotExist.
	Stat(path string) (FileInfo, error)
	// ListAll returns every file in the folder (recursively), sorted
	// by path.
	ListAll() ([]FileInfo, error)
}

// Mem is an in-memory Folder.
type Mem struct {
	mu       sync.RWMutex
	files    map[string]memFile
	watchers []*memWatch
}

type memFile struct {
	data    []byte
	modTime time.Time
}

var _ Folder = (*Mem)(nil)

// NewMem returns an empty in-memory folder.
func NewMem() *Mem {
	return &Mem{files: make(map[string]memFile)}
}

// ReadFile implements Folder.
func (m *Mem) ReadFile(path string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	f, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("read %q: %w", path, ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

// WriteFile implements Folder.
func (m *Mem) WriteFile(path string, data []byte, modTime time.Time) error {
	if err := cloud.ValidatePath(path); err != nil {
		return fmt.Errorf("localfs: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = memFile{data: append([]byte(nil), data...), modTime: modTime}
	m.notifyLocked(path)
	return nil
}

// Remove implements Folder.
func (m *Mem) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, path)
	m.notifyLocked(path)
	return nil
}

// Stat implements Folder.
func (m *Mem) Stat(path string) (FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	f, ok := m.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("stat %q: %w", path, ErrNotExist)
	}
	return FileInfo{Path: path, Size: int64(len(f.data)), ModTime: f.modTime}, nil
}

// ListAll implements Folder.
func (m *Mem) ListAll() ([]FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]FileInfo, 0, len(m.files))
	for p, f := range m.files {
		out = append(out, FileInfo{Path: p, Size: int64(len(f.data)), ModTime: f.modTime})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Dir is a Folder backed by a directory on the real file system.
type Dir struct {
	root string
}

var _ Folder = (*Dir)(nil)

// NewDir returns a Folder rooted at the given directory, creating it
// if necessary.
func NewDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("localfs: creating root: %w", err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("localfs: resolving root: %w", err)
	}
	return &Dir{root: abs}, nil
}

// Root returns the absolute root directory.
func (d *Dir) Root() string { return d.root }

// resolve maps a folder-relative slash path to an OS path, rejecting
// escapes.
func (d *Dir) resolve(path string) (string, error) {
	if err := cloud.ValidatePath(path); err != nil {
		return "", fmt.Errorf("localfs: %w", err)
	}
	return filepath.Join(d.root, filepath.FromSlash(path)), nil
}

// ReadFile implements Folder.
func (d *Dir) ReadFile(path string) ([]byte, error) {
	p, err := d.resolve(path)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("read %q: %w", path, ErrNotExist)
	}
	if err != nil {
		return nil, fmt.Errorf("localfs: read %q: %w", path, err)
	}
	return data, nil
}

// WriteFile implements Folder.
func (d *Dir) WriteFile(path string, data []byte, modTime time.Time) error {
	p, err := d.resolve(path)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("localfs: mkdir for %q: %w", path, err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return fmt.Errorf("localfs: write %q: %w", path, err)
	}
	if !modTime.IsZero() {
		if err := os.Chtimes(p, modTime, modTime); err != nil {
			return fmt.Errorf("localfs: chtimes %q: %w", path, err)
		}
	}
	return nil
}

// DurableWriter is an optional Folder extension for writes that must
// survive a process crash or power loss: the data is flushed to stable
// storage and the replacement of any previous content is atomic (a
// reader sees either the old file or the new one, never a torn mix).
// The intent journal uses it when available; folders without physical
// durability (Mem) simply fall back to WriteFile.
type DurableWriter interface {
	WriteFileDurable(path string, data []byte, modTime time.Time) error
}

var _ DurableWriter = (*Dir)(nil)

// WriteFileDurable implements DurableWriter: the data is written to a
// temporary file in the target directory, fsynced, and renamed over
// the destination, so a crash mid-write leaves the previous content
// intact and a completed call survives power loss.
func (d *Dir) WriteFileDurable(path string, data []byte, modTime time.Time) error {
	p, err := d.resolve(path)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("localfs: mkdir for %q: %w", path, err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(p)+".tmp*")
	if err != nil {
		return fmt.Errorf("localfs: temp for %q: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("localfs: write %q: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("localfs: sync %q: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("localfs: close %q: %w", path, err)
	}
	if err := os.Rename(tmpName, p); err != nil {
		cleanup()
		return fmt.Errorf("localfs: rename %q: %w", path, err)
	}
	if !modTime.IsZero() {
		if err := os.Chtimes(p, modTime, modTime); err != nil {
			return fmt.Errorf("localfs: chtimes %q: %w", path, err)
		}
	}
	return nil
}

// Remove implements Folder.
func (d *Dir) Remove(path string) error {
	p, err := d.resolve(path)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("localfs: remove %q: %w", path, err)
	}
	return nil
}

// Stat implements Folder.
func (d *Dir) Stat(path string) (FileInfo, error) {
	p, err := d.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	fi, err := os.Stat(p)
	if errors.Is(err, fs.ErrNotExist) {
		return FileInfo{}, fmt.Errorf("stat %q: %w", path, ErrNotExist)
	}
	if err != nil {
		return FileInfo{}, fmt.Errorf("localfs: stat %q: %w", path, err)
	}
	return FileInfo{Path: path, Size: fi.Size(), ModTime: fi.ModTime()}, nil
}

// ListAll implements Folder.
func (d *Dir) ListAll() ([]FileInfo, error) {
	var out []FileInfo
	err := filepath.WalkDir(d.root, func(p string, entry fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if entry.IsDir() {
			// Skip UniDrive's own state directory.
			if entry.Name() == ".unidrive" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		fi, err := entry.Info()
		if err != nil {
			return err
		}
		out = append(out, FileInfo{
			Path:    filepath.ToSlash(rel),
			Size:    fi.Size(),
			ModTime: fi.ModTime(),
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("localfs: walking %q: %w", d.root, err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// ChangeKind classifies one detected folder change.
type ChangeKind int

// Change kinds.
const (
	Added ChangeKind = iota + 1
	Modified
	Removed
)

// String names the kind.
func (k ChangeKind) String() string {
	switch k {
	case Added:
		return "added"
	case Modified:
		return "modified"
	case Removed:
		return "removed"
	default:
		return fmt.Sprintf("ChangeKind(%d)", int(k))
	}
}

// Event is one detected change.
type Event struct {
	Kind ChangeKind
	Info FileInfo // for Removed, only Path is set
}

// Scanner detects folder changes by polling: each Scan compares the
// folder against the previous state and returns the events in
// deterministic (path-sorted) order. The UniDrive client ignores
// paths for which it itself performed the write (see Suppress).
type Scanner struct {
	folder Folder

	mu       sync.Mutex
	prev     map[string]FileInfo
	suppress map[string]suppressedState
}

type suppressedState struct {
	size    int64
	modTime time.Time
	removed bool
}

// NewScanner returns a Scanner over folder. The first Scan reports
// every existing file as Added, unless Prime is called first.
func NewScanner(folder Folder) *Scanner {
	return &Scanner{
		folder:   folder,
		prev:     make(map[string]FileInfo),
		suppress: make(map[string]suppressedState),
	}
}

// Prime records the current folder state as already-known so the next
// Scan reports only subsequent changes.
func (s *Scanner) Prime() error {
	infos, err := s.folder.ListAll()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prev = make(map[string]FileInfo, len(infos))
	for _, fi := range infos {
		s.prev[fi.Path] = fi
	}
	return nil
}

// Suppress tells the scanner that UniDrive itself wrote (or removed)
// path, so the resulting change must not be re-reported as a local
// edit. It must be called with the exact state that was written.
func (s *Scanner) Suppress(path string, size int64, modTime time.Time, removed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.suppress[path] = suppressedState{size: size, modTime: modTime, removed: removed}
}

// StatePrefix is UniDrive's private directory inside the sync folder;
// the scanner never reports paths under it (the Dir folder also hides
// it from ListAll, but in-memory folders do not).
const StatePrefix = ".unidrive/"

// Restore replaces the scanner's known-state baseline, used when a
// client restarts with persisted state: edits made while it was not
// running are then detected as changes against the saved baseline.
func (s *Scanner) Restore(infos []FileInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prev = make(map[string]FileInfo, len(infos))
	for _, fi := range infos {
		s.prev[fi.Path] = fi
	}
}

// Baseline returns the scanner's current known state, sorted by path,
// for persistence. Pending suppressions are folded in: a suppressed
// path is one UniDrive itself just wrote (or removed), and that state
// is exactly what the next Scan will record as known — persisting the
// pre-write baseline instead would make a restarted client re-detect
// its own applied downloads as fresh local edits.
func (s *Scanner) Baseline() []FileInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FileInfo, 0, len(s.prev)+len(s.suppress))
	add := func(path string) {
		if fi, ok := s.knownLocked(path); ok {
			out = append(out, fi)
		}
	}
	for path := range s.prev {
		add(path)
	}
	for path := range s.suppress {
		if _, listed := s.prev[path]; !listed {
			add(path)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// BaselineFor is Baseline restricted to the given paths — what an
// incremental checkpoint persists after a pass that touched only
// them. known holds the paths' current entries sorted by path; gone
// lists, sorted, the paths the baseline does not (or no longer) know.
// Cost is O(len(paths)) regardless of folder size.
func (s *Scanner) BaselineFor(paths []string) (known []FileInfo, gone []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, path := range paths {
		if fi, ok := s.knownLocked(path); ok {
			known = append(known, fi)
		} else {
			gone = append(gone, path)
		}
	}
	sort.Slice(known, func(i, j int) bool { return known[i].Path < known[j].Path })
	sort.Strings(gone)
	return known, gone
}

// knownLocked returns the baseline entry for path with any pending
// suppression folded in (see Baseline). The caller holds s.mu.
func (s *Scanner) knownLocked(path string) (FileInfo, bool) {
	if sup, ok := s.suppress[path]; ok {
		if sup.removed {
			return FileInfo{}, false
		}
		return FileInfo{Path: path, Size: sup.size, ModTime: sup.modTime}, true
	}
	fi, ok := s.prev[path]
	return fi, ok
}

// Scan compares the folder against the previous scan and returns the
// changes.
func (s *Scanner) Scan() ([]Event, error) {
	events, _, err := s.ScanAll()
	return events, err
}

// ScanAll is Scan plus the number of files examined (every file in
// the folder) — the denominator of the event-driven pipeline's win:
// an incremental pass stats only dirty paths, a full pass stats all
// of these.
func (s *Scanner) ScanAll() ([]Event, int, error) {
	infos, err := s.folder.ListAll()
	if err != nil {
		return nil, 0, err
	}
	kept := infos[:0]
	for _, fi := range infos {
		if !strings.HasPrefix(fi.Path, StatePrefix) {
			kept = append(kept, fi)
		}
	}
	infos = kept
	s.mu.Lock()
	defer s.mu.Unlock()

	current := make(map[string]FileInfo, len(infos))
	for _, fi := range infos {
		current[fi.Path] = fi
	}

	var events []Event
	for path, fi := range current {
		if ev, emit := s.diffPresentLocked(path, fi); emit {
			events = append(events, ev)
		}
	}
	for path := range s.prev {
		if _, still := current[path]; still {
			continue
		}
		if sup, ok := s.suppress[path]; ok && sup.removed {
			delete(s.suppress, path)
			continue
		}
		events = append(events, Event{Kind: Removed, Info: FileInfo{Path: path}})
	}
	s.prev = current
	sort.Slice(events, func(i, j int) bool { return events[i].Info.Path < events[j].Info.Path })
	return events, len(current), nil
}

// diffPresentLocked classifies one present file against the baseline,
// consuming any matching self-write suppression. The caller holds
// s.mu and is responsible for recording fi into the baseline (Scan
// replaces s.prev wholesale; ScanDirty updates entries in place).
func (s *Scanner) diffPresentLocked(path string, fi FileInfo) (Event, bool) {
	prev, existed := s.prev[path]
	if sup, ok := s.suppress[path]; ok && !sup.removed &&
		sup.size == fi.Size && sup.modTime.Equal(fi.ModTime) {
		delete(s.suppress, path)
		return Event{}, false
	}
	switch {
	case !existed:
		return Event{Kind: Added, Info: fi}, true
	case prev.Size != fi.Size || !prev.ModTime.Equal(fi.ModTime):
		return Event{Kind: Modified, Info: fi}, true
	}
	return Event{}, false
}

// ScanDirty is the incremental counterpart of Scan: it stats only the
// given paths (the dirty set accumulated from watcher notifications)
// and diffs each against the known baseline, updating the baseline in
// place. Cost is O(len(paths)) regardless of folder size. Paths that
// turn out unchanged — watchers over-report — produce no event. The
// returned count is the number of stat calls performed.
//
// ScanDirty trusts the dirty set for completeness: a change on a path
// not listed stays undetected until the next full Scan, which is why
// the sync loop pairs watchers with a full-rescan safety net.
func (s *Scanner) ScanDirty(paths []string) ([]Event, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	statted := 0
	seen := make(map[string]bool, len(paths))
	var events []Event
	for _, path := range paths {
		if seen[path] || strings.HasPrefix(path, StatePrefix) {
			continue
		}
		seen[path] = true
		fi, err := s.folder.Stat(path)
		statted++
		if err != nil {
			if !errors.Is(err, ErrNotExist) {
				return nil, statted, err
			}
			// Gone. Only report it if the baseline knew it (a created-
			// then-removed temp file produces no event at all).
			if sup, ok := s.suppress[path]; ok && sup.removed {
				delete(s.suppress, path)
				delete(s.prev, path)
				continue
			}
			if _, existed := s.prev[path]; existed {
				events = append(events, Event{Kind: Removed, Info: FileInfo{Path: path}})
				delete(s.prev, path)
			}
			continue
		}
		if ev, emit := s.diffPresentLocked(path, fi); emit {
			events = append(events, ev)
		}
		s.prev[path] = fi
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Info.Path < events[j].Info.Path })
	return events, statted, nil
}

// ConflictCopyPath derives the path used to materialize the losing
// version of a conflicted file, mirroring the convention of
// commercial sync clients.
func ConflictCopyPath(path, device string) string {
	dir, base := cloud.SplitPath(path)
	ext := ""
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base, ext = base[:i], base[i:]
	}
	return cloud.JoinPath(dir, fmt.Sprintf("%s (conflicted copy from %s)%s", base, device, ext))
}
