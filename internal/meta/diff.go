package meta

import "sort"

// DiffEntry records how one path changed between two images.
type DiffEntry struct {
	Path string
	// Before is the path's primary snapshot in the older image (nil
	// if absent), After in the newer one.
	Before, After *Snapshot
}

// Diff maps path -> change between two images. Only paths whose
// primary snapshot content differs appear.
type Diff map[string]DiffEntry

// DiffImages performs the tree comparison of paper §5.2: it
// de-serializes to per-path snapshots and reports every path whose
// content differs between from and to.
func DiffImages(from, to *Image) Diff {
	d := make(Diff)
	seen := make(map[string]bool, from.NumFiles()+to.NumFiles())
	for p := range from.AllFiles() {
		seen[p] = true
	}
	for p := range to.AllFiles() {
		seen[p] = true
	}
	for p := range seen {
		before := from.Lookup(p).Current()
		after := to.Lookup(p).Current()
		if before.ContentEquals(after) {
			continue
		}
		d[p] = DiffEntry{Path: p, Before: before, After: after}
	}
	return d
}

// Paths returns the diff's paths in sorted order.
func (d Diff) Paths() []string {
	out := make([]string, 0, len(d))
	for p := range d {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
