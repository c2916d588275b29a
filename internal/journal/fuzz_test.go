package journal

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"unidrive/internal/localfs"
	"unidrive/internal/meta"
)

// FuzzOpen feeds arbitrary bytes to Open as the journal file. It must
// never panic, and fail only to refuse an old metadata format; a
// journal it opens intact re-persists its intents to a fixed point: the
// file it writes opens to a journal that writes the same file.
func FuzzOpen(f *testing.F) {
	f.Add([]byte(`{"intents":[{"id":"b1","kind":"upload","state":"uploading","device":"alpha","createdAt":"1970-01-01T00:01:40Z","changes":[{"type":1,"path":"a.txt","snapshot":{"path":"a.txt","size":0,"modTime":"0001-01-01T00:00:00Z","device":"","segmentIds":["seg1"]},"segments":[{"id":"seg1","length":10,"k":2,"n":4,"refCount":0,"blocks":[{"blockId":0,"cloudId":"c0","crc":9}]}],"time":"0001-01-01T00:00:00Z"}],"placements":{"seg1":{"0":"c0"}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// persisted opens the file and returns what the journal writes
		// back, nil for a journal that opened damaged or was refused.
		persisted := func(data []byte) []byte {
			folder := localfs.NewMem()
			if err := folder.WriteFile(Path, data, time.Time{}); err != nil {
				t.Fatal(err)
			}
			j, intact, err := Open(folder)
			if errors.Is(err, meta.ErrOldFormat) {
				return nil
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !intact {
				return nil
			}
			j.mu.Lock()
			err = j.persistLocked()
			j.mu.Unlock()
			if err != nil {
				t.Fatalf("an opened journal does not persist: %v", err)
			}
			out, err := folder.ReadFile(Path)
			if err != nil {
				return []byte{} // no intents: the file is removed
			}
			return out
		}
		first := persisted(data)
		if len(first) == 0 {
			return
		}
		if second := persisted(first); !bytes.Equal(first, second) {
			t.Fatalf("re-persisting is not a fixed point:\n%s\n%s", first, second)
		}
	})
}
