package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"unidrive/internal/localfs"
)

// fuzzDevice is the device name the checked-in seed corpus was
// written for (testdata/fuzz/FuzzLoadState).
const fuzzDevice = "alpha"

// FuzzLoadState feeds arbitrary bytes to the checkpoint decoder as a
// base and two delta files. It must never panic, never restore a
// version the files do not chain to, never let a delta discard the
// base, and any state it accepts must re-encode to itself.
func FuzzLoadState(f *testing.F) {
	// Besides the checked-in corpus, seed with the files a live client
	// writes today, so the corpus cannot go stale with the format.
	r := newRig(5)
	a, fa := r.device(f, fuzzDevice)
	var files [3][]byte
	for i, path := range []string{statePath, deltaPath(1), deltaPath(2)} {
		if err := fa.WriteFile(fmt.Sprintf("f%d.txt", i), []byte(fmt.Sprintf("file %d", i)), time.Unix(1_700_000_000, 0)); err != nil {
			f.Fatal(err)
		}
		if _, err := a.SyncOnce(ctxT(f)); err != nil {
			f.Fatal(err)
		}
		var err error
		if files[i], err = fa.ReadFile(path); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(files[0], files[1], files[2])
	f.Add(files[0], files[1], files[2][:len(files[2])/2]) // torn tail
	f.Add(files[0], files[2], files[1])                   // out of order
	f.Add(files[0], []byte(nil), files[2])                // gap

	f.Fuzz(func(t *testing.T, base, d1, d2 []byte) {
		deltas := [][]byte{d1, d2}
		read := func(n int) ([]byte, error) {
			if n > len(deltas) || len(deltas[n-1]) == 0 {
				return nil, localfs.ErrNotExist
			}
			return deltas[n-1], nil
		}
		st, reason, err := restoreCheckpoint(fuzzDevice, base, read)
		if err != nil {
			t.Fatalf("restoreCheckpoint: %v", err)
		}
		if reason != "" {
			return
		}

		// The base alone must restore too (a delta never discards it),
		// and the version reached with the deltas must be the one an
		// independent walk of the record versions chains to.
		alone, reason, err := restoreCheckpoint(fuzzDevice, base, func(int) ([]byte, error) { return nil, localfs.ErrNotExist })
		if err != nil || reason != "" {
			t.Fatalf("base restores with deltas but not alone: reason=%q err=%v", reason, err)
		}
		head := alone.img.Version
		reachable := map[int64]bool{head: true}
		for _, raw := range deltas {
			d, ok := decodeStateDelta(raw)
			if len(raw) == 0 || !ok || len(d.Records) == 0 {
				break
			}
			if d.Records[len(d.Records)-1].Version <= head {
				continue
			}
			chains := true
			for i, rec := range d.Records {
				chains = chains && rec.Version == head+1+int64(i)
			}
			if !chains {
				break
			}
			head = d.Records[len(d.Records)-1].Version
			reachable[head] = true
		}
		if !reachable[st.img.Version] {
			t.Fatalf("restored v%d, which the files do not chain to (base v%d)", st.img.Version, alone.img.Version)
		}

		// Fixed point: the accepted state, written as a base, restores to
		// a state that writes the same base.
		encode := func(st checkpointState) []byte {
			baseline := make([]localfs.FileInfo, 0, len(st.baseline))
			for _, fi := range st.baseline {
				baseline = append(baseline, fi)
			}
			sort.Slice(baseline, func(i, j int) bool { return baseline[i].Path < baseline[j].Path })
			data, err := encodeStateBase(fuzzDevice, time.Time{}, st.img, baseline)
			if err != nil {
				t.Fatalf("accepted state does not encode: %v", err)
			}
			return data
		}
		first := encode(st)
		again, reason, err := restoreCheckpoint(fuzzDevice, first, func(int) ([]byte, error) { return nil, localfs.ErrNotExist })
		if err != nil || reason != "" {
			t.Fatalf("re-encoded state does not restore: reason=%q err=%v", reason, err)
		}
		if second := encode(again); !bytes.Equal(first, second) {
			t.Fatalf("accepted state does not re-encode to itself:\n%s\n%s", first, second)
		}
	})
}
