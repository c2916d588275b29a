package deltasync

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
)

// The chunked chain, pinned: a tail past maxTailBytes freezes into an
// immutable delta.v<first version> object, and every reader — the
// incremental one behind the freeze, the cold full fetch, one that
// finds a half-finished freeze or a chunk of a dead lineage — still
// derives the committer's image.

// batch returns n add changes with paths and segments unique to tag.
func batch(tag string, n int) []*meta.Change {
	out := make([]*meta.Change, n)
	for i := range out {
		out[i] = addChange(fmt.Sprintf("dir/%s-%04d.dat", tag, i), fmt.Sprintf("segment-%s-%04d", tag, i))
	}
	return out
}

// chunkStarts lists the chunk objects on one cloud store, ascending.
func chunkStarts(t *testing.T, st *cloudsim.Store) []int64 {
	t.Helper()
	entries, err := cloudsim.NewDirect(st).List(context.Background(), DefaultDir)
	if err != nil {
		t.Fatal(err)
	}
	var starts []int64
	for _, e := range entries {
		if v, ok := parseChunkName(e.Name); ok {
			starts = append(starts, v)
		}
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			t.Fatalf("chunk listing not in version order: %v", starts)
		}
	}
	return starts
}

// chunkedWriter commits one large batch — which rotates, leaving a
// base big enough that λ (a quarter of it) exceeds two chunk caps —
// and returns the writer standing on that base with an empty chain.
// The writer is pinned: its commits write the first quorum of clouds.
func chunkedWriter(t *testing.T, r *rig) *Store {
	t.Helper()
	w := r.pinnedStore(t, "dW", Config{})
	stats, err := w.Commit(context.Background(), batch("base", 3000))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.BaseRotated {
		t.Fatal("a 3000-file commit did not rotate the base")
	}
	return w
}

// appendBatch commits 40 files (≈ 14 KB of records) and reports
// whether a new chunk object appeared; it fails the test on a rotation.
func appendBatch(t *testing.T, r *rig, w *Store) (froze bool) {
	t.Helper()
	before := len(chunkStarts(t, r.stores[0]))
	stats, err := w.Commit(context.Background(), batch(fmt.Sprintf("v%d", w.Stamp().Version+1), 40))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BaseRotated {
		t.Fatalf("commit v%d rotated the base; the scenario needs appends", stats.Version)
	}
	return len(chunkStarts(t, r.stores[0])) > before
}

// appendUntilFreeze commits batches until one freezes the tail.
func appendUntilFreeze(t *testing.T, r *rig, w *Store) {
	t.Helper()
	for i := 0; i < 12; i++ {
		if appendBatch(t, r, w) {
			return
		}
	}
	t.Fatal("tail never froze into a chunk")
}

func download(t *testing.T, st *cloudsim.Store, name string) []byte {
	t.Helper()
	data, err := cloudsim.NewDirect(st).Download(context.Background(), DefaultDir+"/"+name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func upload(t *testing.T, st *cloudsim.Store, name string, data []byte) {
	t.Helper()
	if err := cloudsim.NewDirect(st).Upload(context.Background(), DefaultDir+"/"+name, data); err != nil {
		t.Fatal(err)
	}
}

// wantSameImage fails unless the two images encode byte-identically.
func wantSameImage(t *testing.T, what string, got, want *meta.Image) {
	t.Helper()
	g, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s: image v%d (%d files, %d segments) does not encode like the committer's v%d (%d files, %d segments)",
			what, got.Version, got.NumFiles(), len(got.SegmentIDs()), want.Version, want.NumFiles(), len(want.SegmentIDs()))
	}
}

func TestTailPastCapFreezesIntoChunk(t *testing.T) {
	r := newRig(3)
	w := chunkedWriter(t, r)
	first := w.Stamp().Version + 1
	appendUntilFreeze(t, r, w)

	for i, st := range r.stores[:w.Quorum()] {
		if got := chunkStarts(t, st); len(got) != 1 || got[0] != first {
			t.Fatalf("cloud %d holds chunks %v, want the one named after the tail's first record v%d", i, got, first)
		}
		chunk := download(t, st, chunkName(first))
		if len(chunk) <= maxTailBytes {
			t.Errorf("cloud %d: chunk is %d bytes, not past the %d-byte cap that froze it", i, len(chunk), maxTailBytes)
		}
		recs, err := w.decodeDelta(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || recs[0].Version != first || recs[len(recs)-1].Version != w.Stamp().Version {
			t.Errorf("cloud %d: chunk does not span v%d..v%d", i, first, w.Stamp().Version)
		}
		tail, err := w.decodeDelta(download(t, st, deltaFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(tail) != 0 {
			t.Errorf("cloud %d: tail holds %d records after the freeze, want none", i, len(tail))
		}
	}
	// The commit after a freeze uploads only its own record.
	before := w.Stamp().Version
	if appendBatch(t, r, w) {
		t.Fatal("the commit after a freeze froze again")
	}
	tail, err := w.decodeDelta(download(t, r.stores[0], deltaFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Version != before+1 {
		t.Errorf("tail after the freeze holds %d records, want just v%d", len(tail), before+1)
	}
}

func TestIncrementalBackfillsOnlyChunksAfterHead(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	w := chunkedWriter(t, r)
	chunk1 := w.Stamp().Version + 1
	appendUntilFreeze(t, r, w)
	chunk2 := w.Stamp().Version + 1
	appendBatch(t, r, w)
	appendBatch(t, r, w)

	// The reader stands two records into what becomes the second chunk.
	reg := obs.NewRegistry()
	reader, recs := r.recordedStore(t, "dR", Config{Obs: reg})
	if _, err := reader.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}
	appendUntilFreeze(t, r, w)
	appendBatch(t, r, w) // a non-empty tail beyond the second chunk

	var before cloudsim.CallCounts
	for _, rec := range recs {
		before = before.Plus(rec.Counts())
	}
	baseBefore := metaCounts(recs, baseFile).Download
	chunk1Before := metaCounts(recs, chunkName(chunk1)).Download
	img, err := reader.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	reader.JoinPoll(ctx) // the poll decided at the quorum; its last answer may still be in flight
	wantSameImage(t, "incremental reader behind a freeze", img, w.CachedShared())
	if inc, full := reg.Counter("deltasync.refresh.incremental").Value(), reg.Counter("deltasync.refresh.full").Value(); inc != 1 || full != 0 {
		t.Errorf("refresh counters: incremental %d, full %d; want 1, 0", inc, full)
	}
	if got := metaCounts(recs, baseFile).Download - baseBefore; got != 0 {
		t.Errorf("backfill downloaded %d base files, want 0", got)
	}
	if got := metaCounts(recs, chunkName(chunk1)).Download - chunk1Before; got != 0 {
		t.Errorf("backfill downloaded the chunk before the reader's head %d times, want 0", got)
	}
	if got := metaCounts(recs, chunkName(chunk2)).Download; got != 1 {
		t.Errorf("backfill downloaded the chunk covering the gap %d times, want 1", got)
	}
	var after cloudsim.CallCounts
	for _, rec := range recs {
		after = after.Plus(rec.Counts())
	}
	// Three stamps, the tail, one listing, the one chunk.
	if got, want := after.Minus(before), (cloudsim.CallCounts{Download: 5, List: 1}); got != want {
		t.Errorf("backfill requests = %+v, want %+v", got, want)
	}
	// The reader's next commit re-uploads only the remote tail's worth.
	if _, err := reader.Commit(ctx, batch("reader", 1)); err != nil {
		t.Fatal(err)
	}
	tail, err := reader.decodeDelta(download(t, r.stores[r.atStamp(t, reader)[0]], deltaFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 {
		t.Errorf("reader's commit uploaded a tail of %d records, want 2 (the writer's last and its own)", len(tail))
	}
}

func TestFullFetchOverFrozenChunks(t *testing.T) {
	r := newRig(3)
	w := chunkedWriter(t, r)
	base := w.Stamp().Version
	appendUntilFreeze(t, r, w)
	appendUntilFreeze(t, r, w)
	appendBatch(t, r, w)
	chunks := len(chunkStarts(t, r.stores[0]))
	if chunks != 2 {
		t.Fatalf("scenario built %d chunks, want 2", chunks)
	}

	reader, recs := r.recordedStore(t, "dR", Config{})
	img, err := reader.fetchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "full fetch over chunks", img, w.CachedShared())
	if got, ok := reader.RecordsSince(base, img.Version); !ok || int64(len(got)) != img.Version-base {
		t.Errorf("RecordsSince(%d, %d) after the full fetch = %d records, %v", base, img.Version, len(got), ok)
	}
	// No more than today's budget per cloud: the base, one listing, the
	// chunks, the tail.
	for i, rec := range recs {
		got := rec.Counts()
		if got.Download > 2+chunks || got.List > 1 || got.Upload+got.Delete+got.CreateDir != 0 {
			t.Errorf("cloud %d: full fetch issued %+v, want at most %d downloads and one list", i, got, 2+chunks)
		}
		if n := rec.CountsUnder(DefaultDir + "/" + baseFile).Download; n != 1 {
			t.Errorf("cloud %d: %d base downloads, want 1", i, n)
		}
		if n := rec.CountsUnder(DefaultDir + "/" + deltaFile).Download; n != 1 {
			t.Errorf("cloud %d: %d tail downloads, want 1", i, n)
		}
	}
	// The fetched cursor knows where the remote tail begins: the next
	// commit uploads the writer's last record and its own, not the chain.
	if _, err := reader.Commit(context.Background(), batch("reader", 1)); err != nil {
		t.Fatal(err)
	}
	tail, err := reader.decodeDelta(download(t, r.stores[r.atStamp(t, reader)[0]], deltaFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 {
		t.Errorf("reader's commit uploaded a tail of %d records, want 2", len(tail))
	}
}

// A freeze that stopped after uploading the chunk leaves the old tail
// beside a chunk holding the same records (and one more): the overlap
// is deduplicated by version, not reported as a broken lineage.
func TestInterruptedFreezeIsDeduplicatedByVersion(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	w := chunkedWriter(t, r)
	appendUntilFreeze(t, r, w) // an earlier chunk, so the overlap is not at the base
	appendBatch(t, r, w)
	// The warm reader reads the writer's quorum, clouds 0 and 1.
	quorum := []cloud.Interface{cloudsim.NewDirect(r.stores[0]), cloudsim.NewDirect(r.stores[1])}
	mid := New(quorum, testCipher(t), Config{Device: "dM"})
	if _, err := mid.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}

	// Run ahead to the commit before the second freeze, remembering
	// cloud 0's tail and stamp, then put them back after it: chunk
	// uploaded, tail not yet emptied, stamp not yet written.
	var oldTail, oldStamp []byte
	var files []int
	for i := 0; ; i++ {
		oldTail, oldStamp = download(t, r.stores[0], deltaFile), download(t, r.stores[0], versionFile)
		files = append(files, len(w.CachedShared().Paths()))
		if appendBatch(t, r, w) {
			break
		}
		if i > 12 {
			t.Fatal("tail never froze a second time")
		}
	}
	upload(t, r.stores[0], deltaFile, oldTail)
	upload(t, r.stores[0], versionFile, oldStamp)
	committed := w.Stamp().Version

	only0 := func(device string) *Store {
		return New([]cloud.Interface{cloudsim.NewDirect(r.stores[0])}, testCipher(t), Config{Device: device})
	}
	// A cold reader of that cloud alone: either side of the interrupted
	// commit is a valid answer, a lineage error is not.
	img, err := only0("dC").fetchAll(ctx)
	if err != nil {
		t.Fatalf("full fetch over an interrupted freeze: %v", err)
	}
	switch img.Version {
	case committed:
		wantSameImage(t, "cold reader of the interrupted cloud", img, w.CachedShared())
	case committed - 1:
		if got, want := len(img.Paths()), files[len(files)-1]; got != want {
			t.Errorf("cold reader at v%d holds %d files, want %d", img.Version, got, want)
		}
	default:
		t.Fatalf("cold reader of the interrupted cloud reached v%d, want v%d or v%d", img.Version, committed-1, committed)
	}
	// The warm reader: cloud 1, which finished the freeze, advertises the
	// commit, and its chunk overlaps the reader's cursor.
	img, err = mid.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "warm reader across the interrupted freeze", img, w.CachedShared())
}

// A rotation deletes the old lineage's chunks best-effort; one that
// survives names a dead base and every reader ignores it.
func TestStaleLineageChunkIgnoredAfterRotation(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	w := chunkedWriter(t, r)
	first := w.Stamp().Version + 1
	appendUntilFreeze(t, r, w)
	stale := download(t, r.stores[0], chunkName(first))

	reg := obs.NewRegistry()
	reader, _ := r.recordedStore(t, "dR", Config{Obs: reg})
	if _, err := reader.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		stats, err := w.Commit(ctx, batch(fmt.Sprintf("r%d", i), 40))
		if err != nil {
			t.Fatal(err)
		}
		if stats.BaseRotated {
			break
		}
		if i > 40 {
			t.Fatal("the chain never rotated")
		}
	}
	for i, st := range r.stores {
		if got := chunkStarts(t, st); len(got) != 0 {
			t.Fatalf("cloud %d still lists chunks %v after the rotation", i, got)
		}
		upload(t, st, chunkName(first), stale)
	}
	if _, err := w.Commit(ctx, batch("after", 1)); err != nil {
		t.Fatal(err)
	}

	cold, err := r.store(t, "dC", Config{}).fetchAll(ctx)
	if err != nil {
		t.Fatalf("full fetch beside a stale chunk: %v", err)
	}
	wantSameImage(t, "cold reader beside a stale chunk", cold, w.CachedShared())
	img, err := reader.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "reader across the rotation", img, w.CachedShared())
	if n := reg.Counter("deltasync.refresh.full").Value(); n != 1 {
		t.Errorf("refresh across a rotation: full counter = %d, want 1", n)
	}
	// On the new lineage the stale chunk stays out of the way.
	if _, err := w.Commit(ctx, batch("later", 1)); err != nil {
		t.Fatal(err)
	}
	if img, err = reader.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "reader on the new lineage", img, w.CachedShared())
}

// A delta that does not decrypt is not something the cursor can be
// extended from: the refresh takes the full path, which reads the
// commit from a cloud whose copy is whole — unless the poll decided
// without the torn cloud, and the incremental read found a whole one
// first. Either way the reader ends at the commit.
func TestTornDeltaFallsBackToFullFetch(t *testing.T) {
	ctx := context.Background()
	r := newRig(3)
	w := r.store(t, "dW", Config{})
	commitOne(t, w, "a.txt", "s1")
	reader, _ := r.recordedStore(t, "dR", Config{})
	if _, err := reader.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}
	commitOne(t, w, "b.txt", "s2")
	whole := download(t, r.stores[0], deltaFile)
	upload(t, r.stores[0], deltaFile, whole[:len(whole)/2])

	img, err := reader.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "reader past a torn delta", img, w.CachedShared())
}
