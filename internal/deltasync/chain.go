package deltasync

import (
	"bytes"
	"encoding/json"
	"fmt"

	"unidrive/internal/meta"
)

// Record is one committed metadata update in the delta log.
type Record struct {
	// Version is the image version this record produces.
	Version int64 `json:"version"`
	// Device is the committing device.
	Device string `json:"device"`
	// BaseVersion is the version of the base the record applies to —
	// its lineage. A record of another lineage than the cursor reading
	// it (a chunk or tail that survived a rotation or a repair) is
	// evidence of a stale object and is ignored.
	BaseVersion int64 `json:"baseVersion"`
	// Changes are the file changes of this commit.
	Changes []*meta.Change `json:"changes"`
}

// chain is the delta cursor: an image, and the records of one lineage
// that produced it from where the cursor started. It is a value —
// extend returns a new cursor and leaves the old one whole, so a
// failed refresh or commit has nothing to undo — and everything it
// points to is shared and read-only.
//
// Invariant: records[i].Version == start+1+i, every record carries
// BaseVersion == lineage, and img.Version == start+len(records).
type chain struct {
	// lineage is the version of the cloud base the records apply to.
	lineage int64
	// start is the version the cursor started at: the base's for the
	// store's cursor, the checkpoint's head for a local replay.
	start   int64
	records []Record
	// frozen counts the leading records known to sit in immutable chunk
	// objects; records[frozen:] is the active tail a commit re-uploads.
	frozen int
	img    *meta.Image
}

// startChain returns a cursor standing at img that accepts records of
// the given lineage.
func startChain(img *meta.Image, lineage int64) chain {
	return chain{lineage: lineage, start: img.Version, img: img}
}

func (c chain) head() int64 { return c.img.Version }

// own returns the records of c's lineage, in order: the foreign-lineage
// rule. Objects of a replaced lineage linger (a rotation deletes old
// chunks best-effort, a crashed one leaves the old tail), and a reader
// cannot tell a lingering object from a newer lineage it has not seen
// the base of; neither can extend this cursor, so both are skipped, and
// a refresh that this way stops short of the stamp the cloud advertises
// takes the full path.
func (c chain) own(records []Record) []Record {
	var out []Record
	for _, r := range records {
		if r.BaseVersion == c.lineage {
			out = append(out, r)
		}
	}
	return out
}

// extend returns the cursor advanced over records — the one place that
// validates a record chain and the one place that turns records into
// an image. Records at or below the head must agree with the ones the
// cursor holds (same device per version: the overlap an interrupted
// freeze leaves between a chunk and the old tail is verified and
// skipped, a diverging history is an error); records beyond it must be
// contiguous from the head. Each accepted record is one copy-on-write
// apply, which drops a segment the moment its last reference goes —
// the committer deletes that segment's blocks at the same record, so
// a later re-add starts from the new locations alone on every device.
// On error c is returned unchanged.
func (c chain) extend(records []Record) (chain, error) {
	next := c
	next.records = c.records[:len(c.records):len(c.records)] // append copies: c keeps its own
	for _, r := range c.own(records) {
		switch head := next.head(); {
		case r.Version <= head:
			i := r.Version - c.start - 1
			if i < 0 || next.records[i].Device != r.Device {
				return c, fmt.Errorf("deltasync: record v%d by %s diverges from the cursor (v%d..v%d)", r.Version, r.Device, c.start, head)
			}
		case r.Version != head+1:
			return c, fmt.Errorf("deltasync: inconsistent lineage (base v%d, record v%d after v%d)", c.lineage, r.Version, head)
		default:
			img, err := next.img.ApplyCOW(r.Changes, r.Device)
			if err != nil {
				return c, fmt.Errorf("deltasync: record v%d: %w", r.Version, err)
			}
			img.Version, img.Device = r.Version, r.Device
			next.img = img
			next.records = append(next.records, r)
		}
	}
	return next, nil
}

// frozenBefore returns c knowing that every record below version v
// sits in a chunk object (v == 0: every record). The boundary only
// moves forward: a cloud whose freeze was interrupted still shows the
// old, longer tail.
func (c chain) frozenBefore(v int64) chain {
	n := len(c.records)
	if v > 0 {
		n = min(n, int(v-c.start-1))
	}
	c.frozen = max(c.frozen, n)
	return c
}

// since returns the records with versions in (from, to] when the
// cursor holds that whole span.
func (c chain) since(from, to int64) ([]Record, bool) {
	if from < c.start || to > c.head() || from > to {
		return nil, false
	}
	lo, hi := int(from-c.start), int(to-c.start)
	return c.records[lo:hi:hi], true
}

// Replay applies span — records RecordsSince returned: one lineage,
// contiguous from img — exactly as the store applied them, so the
// result encodes byte-identically to the image the store held. The
// client's local checkpoint resumes through it.
func Replay(img *meta.Image, span []Record) (*meta.Image, error) {
	if len(span) == 0 {
		return img, nil
	}
	next, err := startChain(img, span[0].BaseVersion).extend(span)
	if err != nil {
		return nil, err
	}
	if last := span[len(span)-1].Version; next.head() != last {
		return nil, fmt.Errorf("deltasync: span to v%d mixes lineages, replay stopped at v%d", last, next.head())
	}
	return next.img, nil
}

// encodeDelta serializes and encrypts records as JSON lines — the
// format of the tail and of every chunk.
func (s *Store) encodeDelta(records []Record) ([]byte, error) {
	var buf bytes.Buffer
	for _, r := range records {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("deltasync: encoding record v%d: %w", r.Version, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	sealed, err := s.cipher.Seal(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("deltasync: encrypting delta: %w", err)
	}
	return sealed, nil
}

// decodeDelta is the one door from bytes a cloud served to records.
func (s *Store) decodeDelta(blob []byte) ([]Record, error) {
	plain, err := s.cipher.Open(blob)
	if err != nil {
		return nil, fmt.Errorf("decrypting delta: %w", err)
	}
	var records []Record
	for _, line := range bytes.Split(plain, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("deltasync: decoding record: %w", err)
		}
		records = append(records, r)
	}
	return records, nil
}
