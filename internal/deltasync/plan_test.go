package deltasync

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"unidrive/internal/meta"
)

// stepNames renders a cloud's steps as the object names in write
// order, the chunk delete as "-delta.v*".
func stepNames(steps []step) []string {
	var out []string
	for _, st := range steps {
		if st.dropChunks {
			out = append(out, "-"+chunkPrefix+"*")
		} else {
			out = append(out, st.name)
		}
	}
	return out
}

// TestCommitPlanWriteOrder pins what each commit mode writes to a
// cloud standing at the commit being extended, to one behind it on the
// cursor before the freeze boundary (an empty cloud: genesis) and to
// one off the cursor (an answer that was not clean), in the crash-safe
// order commitPlan documents, and the cursor and λ sizes the store
// moves to.
func TestCommitPlanWriteOrder(t *testing.T) {
	s := newRig(1).store(t, "d1", Config{})
	rotateOrder := []string{baseFile, "-" + chunkPrefix + "*", deltaFile, versionFile}
	repair := []string{baseFile, "-" + chunkPrefix + "*"}
	never, always := func(int) int { return 1 << 30 }, func(int) int { return 1 }
	cat := func(lists ...[]string) []string { return slices.Concat(lists...) }

	// One record on the chain, frozen, so that the modes below are seen
	// with a frozen prefix in place: the tail excludes it.
	cur, err := startChain(meta.NewImage(), 0).extend([]Record{{Version: 1, Device: "d0", Changes: batch("old", 1), ID: "c1"}})
	if err != nil {
		t.Fatal(err)
	}
	cur = cur.frozenBefore(0)
	const chunkBytes = 500
	current := cloudStamp{found: true, reachable: true, stamp: meta.VersionStamp{Device: "d0", Version: 1, Commit: "c1"}}
	empty := cloudStamp{reachable: true}
	frozen := []string{chunkName(1)}

	for _, tc := range []struct {
		name    string
		lambda  func(int) int
		changes []*meta.Change
		stale   bool // also check the clouds behind the commit

		mode                    commitMode
		current                 []string
		records, frozen, start  int
		tailRecords             int // records in the blob that holds the tail
		rotated, chunkBytesGrow bool
	}{
		{name: "append", lambda: never, changes: batch("a", 1),
			mode: modeAppend, current: []string{deltaFile, versionFile},
			records: 2, frozen: 1, tailRecords: 1},
		{name: "append beside a stale cloud", lambda: never, changes: batch("a", 1), stale: true,
			mode: modeAppend, current: []string{deltaFile, versionFile},
			records: 2, frozen: 1, tailRecords: 1},
		{name: "freeze", lambda: never, changes: batch("big", 250),
			mode: modeFreeze, current: []string{chunkName(2), deltaFile, versionFile},
			records: 2, frozen: 2, tailRecords: 1, chunkBytesGrow: true},
		{name: "freeze beside a stale cloud", lambda: never, changes: batch("big", 250), stale: true,
			mode: modeFreeze, current: []string{chunkName(2), deltaFile, versionFile},
			records: 2, frozen: 2, tailRecords: 1, chunkBytesGrow: true},
		{name: "rotate", lambda: always, changes: batch("a", 1),
			mode: modeRotate, current: rotateOrder, start: 2, rotated: true},
		{name: "rotate wins over freeze", lambda: always, changes: batch("big", 250), stale: true,
			mode: modeRotate, current: rotateOrder, start: 2, rotated: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s.lambda = tc.lambda
			p, err := s.planCommit(cur, 1000, chunkBytes, tc.changes)
			if err != nil {
				t.Fatal(err)
			}
			if p.mode != tc.mode {
				t.Fatalf("mode = %d, want %d", p.mode, tc.mode)
			}
			wantBehind, wantOff := cat(frozen, tc.current), cat(repair, frozen, tc.current)
			if tc.rotated {
				wantBehind, wantOff = tc.current, tc.current
			}
			clouds := []struct {
				who   string
				a     cloudStamp
				want  []string
				where standing
			}{
				{"a current cloud", current, tc.current, atHead},
				{"a cloud behind the freeze", empty, wantBehind, onCursor},
				{"a cloud off the cursor", cloudStamp{}, wantOff, offCursor},
			}
			if !tc.stale {
				clouds = clouds[:1]
			}
			for _, c := range clouds {
				steps, where, err := s.behind(&p, c.a)
				if err != nil {
					t.Fatal(err)
				}
				if got := stepNames(steps); !reflect.DeepEqual(got, c.want) {
					t.Errorf("%s receives %v, want %v", c.who, got, c.want)
				}
				if !tc.rotated && where != c.where {
					t.Errorf("%s stands at %d, want %d", c.who, where, c.where)
				}
				// Every list ends with the stamp of the new version.
				stamp, err := meta.DecodeVersionStamp(steps[len(steps)-1].blob)
				want := meta.VersionStamp{Device: "d1", Version: 2, Commit: p.next.img.Commit}
				if err != nil || stamp != want || stamp.Commit == "" {
					t.Errorf("%s: last step carries stamp %+v, %v; want %+v", c.who, stamp, err, want)
				}
			}
			if p.next.head() != 2 || p.next.start != int64(tc.start) || p.next.lineage != int64(tc.start) ||
				len(p.next.records) != tc.records || p.next.frozen != tc.frozen {
				t.Errorf("next cursor: head v%d, start %d, lineage %d, %d records, %d frozen; want v2, %d, %d, %d, %d",
					p.next.head(), p.next.start, p.next.lineage, len(p.next.records), p.next.frozen, tc.start, tc.start, tc.records, tc.frozen)
			}
			if p.stats.BaseRotated != tc.rotated || p.stats.Version != 2 || (p.stats.BaseBytes != 0) != tc.rotated {
				t.Errorf("stats = %+v", p.stats)
			}
			switch {
			case tc.rotated:
				if p.chunkBytes != 0 || p.baseLen != len(p.current[0].blob) {
					t.Errorf("after a rotation λ compares %d chunk bytes to a %d-byte base, want 0 and the new base's %d", p.chunkBytes, p.baseLen, len(p.current[0].blob))
				}
			case tc.chunkBytesGrow:
				if p.chunkBytes != chunkBytes+len(p.current[0].blob) || p.baseLen != 1000 {
					t.Errorf("after a freeze: chunkBytes %d, baseLen %d", p.chunkBytes, p.baseLen)
				}
			default:
				if p.chunkBytes != chunkBytes || p.baseLen != 1000 {
					t.Errorf("after an append: chunkBytes %d, baseLen %d", p.chunkBytes, p.baseLen)
				}
			}
			if tc.rotated {
				plain, err := s.cipher.Open(p.current[0].blob)
				if err != nil {
					t.Fatal(err)
				}
				base, err := meta.DecodeImage(plain)
				if err != nil || base.Version != 2 || base.NumFiles() != p.next.img.NumFiles() || base.Commit != p.next.img.Commit {
					t.Errorf("rotated base: %v, v%d", err, base.Version)
				}
				return
			}
			// The blob holding the tail (the chunk on a freeze) carries the
			// records since the last freeze and nothing older; on a freeze
			// the tail object itself restarts empty.
			tail, err := s.decodeDelta(p.current[0].blob)
			if err != nil || len(tail) != tc.tailRecords || tail[0].Version != 2 || tail[0].BaseVersion != 0 {
				t.Errorf("tail blob: %d records, %v", len(tail), err)
			}
			if tc.mode == modeFreeze {
				if rest, err := s.decodeDelta(p.current[1].blob); err != nil || len(rest) != 0 {
					t.Errorf("tail after the chunk: %d records, %v", len(rest), err)
				}
			}
			if !tc.stale {
				return
			}
			// The catch-up's chunk holds the frozen records, and the base
			// an off-cursor cloud receives is the lineage's: genesis here.
			if recs, err := s.decodeDelta(p.frozen); err != nil || len(recs) != 1 || recs[0].Version != 1 {
				t.Errorf("catch-up chunk: %d records, %v", len(recs), err)
			}
			plain, err := s.cipher.Open(p.base)
			if err != nil {
				t.Fatal(err)
			}
			if base, err := meta.DecodeImage(plain); err != nil || base.Version != 0 {
				t.Errorf("repair base: %v, v%d, want the lineage's v0", err, base.Version)
			}
		})
	}
}

// The one loop uploads a cloud's list in the plan's order. One cloud
// is its own quorum, so every commit writes it.
func TestCommitWritesThePlanInOrder(t *testing.T) {
	ctx := context.Background()
	r := newRig(1)
	s, recs := r.recordedStore(t, "d1", Config{})
	s.lambda = func(int) int { return 1 << 30 }
	commitOne(t, s, "a", "s1")
	if _, err := s.Commit(ctx, batch("big", 250)); err != nil { // freezes v1..v2
		t.Fatal(err)
	}
	s.lambda = func(int) int { return 1 }
	commitOne(t, s, "b", "s3") // rotates

	dir := DefaultDir + "/"
	want := []string{
		deltaFile, versionFile,
		chunkName(1), deltaFile, versionFile,
		baseFile, deltaFile, versionFile,
	}
	for i, rec := range recs {
		var got []string
		for _, p := range rec.UploadedPaths() {
			got = append(got, strings.TrimPrefix(p, dir))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cloud %d was written %v, want %v", i, got, want)
		}
		// The rotation listed the chunks once and deleted the one it found,
		// between the base and the empty tail.
		if c := rec.Counts(); c.List != 1 || c.Delete != 1 {
			t.Errorf("cloud %d: %d lists, %d deletes; want 1, 1", i, c.List, c.Delete)
		}
		if got := chunkStarts(t, r.stores[i]); len(got) != 0 {
			t.Errorf("cloud %d still holds chunks %v", i, got)
		}
	}
}

func TestExtendRules(t *testing.T) {
	rec := func(v int64, dev string, base int64) Record {
		return Record{Version: v, Device: dev, BaseVersion: base, Changes: batch(dev, 1)}
	}
	img := meta.NewImage()
	img.Version = 5
	cur, err := startChain(img, 5).extend([]Record{rec(6, "dA", 5), rec(7, "dB", 5)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		records []Record
		head    int64 // 0: an error
	}{
		{"contiguous", []Record{rec(8, "dA", 5), rec(9, "dA", 5)}, 9},
		{"nothing", nil, 7},
		{"overlap verified and skipped", []Record{rec(6, "dA", 5), rec(7, "dB", 5), rec(8, "dC", 5)}, 8},
		{"overlap by another device", []Record{rec(7, "dX", 5), rec(8, "dA", 5)}, 0},
		{"gap", []Record{rec(9, "dA", 5)}, 0},
		{"foreign lineage ignored", []Record{rec(4, "dA", 3), rec(8, "dA", 5), rec(9, "dA", 8)}, 8},
		{"only a foreign lineage", []Record{rec(9, "dA", 8)}, 7},
		{"below the cursor's start", []Record{rec(5, "dA", 5)}, 0},
		{"invalid change", []Record{{Version: 8, Device: "dA", BaseVersion: 5, Changes: []*meta.Change{nil}}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next, err := cur.extend(tc.records)
			if (err != nil) != (tc.head == 0) {
				t.Fatalf("extend: %v", err)
			}
			if err != nil {
				if next.head() != 7 || len(next.records) != 2 {
					t.Errorf("a refused extend returned a moved cursor (v%d)", next.head())
				}
				return
			}
			if next.head() != tc.head || int64(len(next.records)) != tc.head-5 {
				t.Errorf("head v%d with %d records, want v%d", next.head(), len(next.records), tc.head)
			}
			if cur.head() != 7 || len(cur.records) != 2 {
				t.Error("extend moved the cursor it was called on")
			}
		})
	}
	// Two extensions of one cursor do not write into each other.
	x, _ := cur.extend([]Record{rec(8, "dX", 5)})
	y, _ := cur.extend([]Record{rec(8, "dY", 5)})
	if x.records[2].Device != "dX" || y.records[2].Device != "dY" {
		t.Errorf("sibling cursors share a record slot: %s, %s", x.records[2].Device, y.records[2].Device)
	}
	// The freeze boundary only moves forward.
	if got := x.frozenBefore(8).frozen; got != 2 {
		t.Errorf("frozenBefore(8) = %d, want 2", got)
	}
	if got := x.frozenBefore(0).frozenBefore(7).frozen; got != 3 {
		t.Errorf("boundary moved back to %d", got)
	}
}
