package deltasync

import (
	"context"
	"reflect"
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
// cloud standing at the commit being extended and to any other cloud,
// in the crash-safe order commitPlan documents, and the cursor and λ
// sizes the store moves to.
func TestCommitPlanWriteOrder(t *testing.T) {
	s := newRig(1).store(t, "d1", Config{})
	repairOrder := []string{baseFile, "-" + chunkPrefix + "*", deltaFile, versionFile}
	never, always := func(int) int { return 1 << 30 }, func(int) int { return 1 }

	// One record on the chain, frozen, so that the modes below are seen
	// with a frozen prefix in place: the tail excludes it.
	cur, err := startChain(meta.NewImage(), 0).extend([]Record{{Version: 1, Device: "d0", Changes: batch("old", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	cur = cur.frozenBefore(0)
	const chunkBytes = 500

	for _, tc := range []struct {
		name    string
		lambda  func(int) int
		changes []*meta.Change
		repair  bool

		mode                    commitMode
		current, repairSteps    []string
		records, frozen, start  int
		tailRecords             int // records in the blob that holds the tail
		rotated, chunkBytesGrow bool
	}{
		{name: "append", lambda: never, changes: batch("a", 1),
			mode: modeAppend, current: []string{deltaFile, versionFile},
			records: 2, frozen: 1, tailRecords: 1},
		{name: "append beside a stale cloud", lambda: never, changes: batch("a", 1), repair: true,
			mode: modeAppend, current: []string{deltaFile, versionFile}, repairSteps: repairOrder,
			records: 2, frozen: 1, tailRecords: 1},
		{name: "freeze", lambda: never, changes: batch("big", 250),
			mode: modeFreeze, current: []string{chunkName(2), deltaFile, versionFile},
			records: 2, frozen: 2, tailRecords: 1, chunkBytesGrow: true},
		{name: "freeze beside a stale cloud", lambda: never, changes: batch("big", 250), repair: true,
			mode: modeFreeze, current: []string{chunkName(2), deltaFile, versionFile}, repairSteps: repairOrder,
			records: 2, frozen: 2, tailRecords: 1, chunkBytesGrow: true},
		{name: "rotate", lambda: always, changes: batch("a", 1),
			mode: modeRotate, current: repairOrder, repairSteps: repairOrder,
			start: 2, rotated: true},
		{name: "rotate wins over freeze", lambda: always, changes: batch("big", 250), repair: true,
			mode: modeRotate, current: repairOrder, repairSteps: repairOrder,
			start: 2, rotated: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s.lambda = tc.lambda
			p, err := s.planCommit(cur, 1000, chunkBytes, tc.changes, tc.repair)
			if err != nil {
				t.Fatal(err)
			}
			if p.mode != tc.mode {
				t.Fatalf("mode = %d, want %d", p.mode, tc.mode)
			}
			if got := stepNames(p.current); !reflect.DeepEqual(got, tc.current) {
				t.Errorf("a current cloud receives %v, want %v", got, tc.current)
			}
			if got := stepNames(p.repair); !reflect.DeepEqual(got, tc.repairSteps) {
				t.Errorf("a stale cloud receives %v, want %v", got, tc.repairSteps)
			}
			// Every list ends with the stamp of the new version.
			for _, steps := range [][]step{p.current, p.repair} {
				if len(steps) == 0 {
					continue
				}
				stamp, err := meta.DecodeVersionStamp(steps[len(steps)-1].blob)
				if err != nil || stamp != (meta.VersionStamp{Device: "d1", Version: 2}) {
					t.Errorf("last step carries stamp %+v, %v", stamp, err)
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
				if err != nil || base.Version != 2 || base.NumFiles() != p.next.img.NumFiles() {
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
		})
	}
}

// The one loop uploads a cloud's list in the plan's order.
func TestCommitWritesThePlanInOrder(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
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
