package core

import (
	"context"
	"errors"
	"fmt"

	"unidrive/internal/chunker"
	"unidrive/internal/cloud"
	"unidrive/internal/erasure"
	"unidrive/internal/meta"
	"unidrive/internal/sched"
	"unidrive/internal/transfer"
)

// fetchVerified is the one way segment content comes back from the
// multi-cloud — the apply stage, Get and rebalance all read through
// it. Every segment gets exactly one deliver call, on the calling
// goroutine, with content that hashes to its ID or the reason there is
// none:
//
//   - segments still in the local upload cache are delivered first,
//     without touching the network;
//   - the rest download through ONE batched dispatcher (any K blocks
//     each, earliest segment first, later segments' blocks filling
//     otherwise-idle connections; copies failing their stamped checksum
//     are re-routed inside the batch) and are decoded and SHA-1-verified
//     the moment their K-th block lands, while later ones still
//     transfer;
//   - a plan the batch could not complete is classified once
//     (unrecoverable);
//   - a segment whose decoded bytes fail the content SHA-1 gets one
//     replacement fetch that excludes the indicted blocks (refetch),
//     after the batch has returned.
//
// Corrupt bytes never leave this function. Its own error is the
// cancelled pass's; deliveries already made stand.
func (c *Client) fetchVerified(ctx context.Context, segs []*meta.Segment, deliver func(i int, data []byte, err error)) error {
	var items []transfer.DownloadItem
	var index []int // items[j] fetches segs[index[j]]
	// suspects are the segments refetch gets a second go at. It is
	// appended to from Done callbacks, which is race-free: DownloadBatch
	// runs every Done on this goroutine (transfer.DownloadItem.Done).
	type suspect struct {
		i        int
		excluded map[int]bool
	}
	var suspects []suspect
	for i, seg := range segs {
		if data, ok := c.cachedSegment(seg.ID); ok {
			deliver(i, data, nil)
			continue
		}
		item, err := downloadItem(seg, nil)
		if err != nil {
			deliver(i, nil, err)
			continue
		}
		item.Done = func(blocks map[int][]byte) {
			data, excluded, err := c.decodeAndVerify(seg, blocks)
			if errors.Is(err, errDecodeMismatch) {
				suspects = append(suspects, suspect{i, excluded})
				return
			}
			deliver(i, data, err)
		}
		items, index = append(items, item), append(index, i)
	}
	if len(items) > 0 {
		partial, err := c.engine.DownloadBatch(ctx, items)
		if err != nil {
			return err
		}
		for j, item := range items {
			if !item.Plan.Done() {
				recycleBlocks(partial[j])
				deliver(index[j], nil, unrecoverable(segs[index[j]], item.Plan))
			}
		}
	}
	for _, s := range suspects {
		data, err := c.refetch(ctx, segs[s.i], s.excluded)
		deliver(s.i, data, err)
	}
	return nil
}

// unrecoverable says why a download plan ended short of K blocks. When
// corrupt copies (detected by their stamped checksums) exhausted the
// segment's holders it fails loudly as data corruption, not as a
// generic availability problem.
func unrecoverable(seg *meta.Segment, plan *sched.DownloadPlan) error {
	if n := plan.CorruptCount(); n > 0 {
		return fmt.Errorf("core: segment %s: %w after %d corrupt block fetches: %w",
			seg.ID, transfer.ErrSegmentUnrecoverable, n, cloud.ErrCorrupt)
	}
	return fmt.Errorf("core: segment %s: %w", seg.ID, transfer.ErrSegmentUnrecoverable)
}

// refetch is fetchVerified's decode-time last line of defense: any K
// blocks of the segment other than the excluded ones, decoded and
// verified again. It must run after the first batch has returned — a
// nested DownloadBatch inside a Done callback could deadlock on the
// shared fair scheduler, whose slots the outer batch releases on that
// very goroutine. If the replacement cannot produce verified content
// either, the caller gets a loud cloud.ErrCorrupt, never silently wrong
// data.
func (c *Client) refetch(ctx context.Context, seg *meta.Segment, excluded map[int]bool) ([]byte, error) {
	noClean := func(err error) ([]byte, error) {
		return nil, fmt.Errorf("core: segment %s: content verification failed and no clean replacement blocks: %w (%v)",
			seg.ID, cloud.ErrCorrupt, err)
	}
	item, err := downloadItem(seg, excluded)
	if err != nil {
		return noClean(err)
	}
	res, err := c.engine.DownloadBatch(ctx, []transfer.DownloadItem{item})
	if err != nil {
		return noClean(err)
	}
	if !item.Plan.Done() {
		recycleBlocks(res[0])
		return noClean(unrecoverable(seg, item.Plan))
	}
	data, _, err := c.decodeAndVerify(seg, res[0])
	if err != nil {
		return nil, fmt.Errorf("core: segment %s: content verification failed after excluding %d suspect blocks: %w",
			seg.ID, len(excluded), cloud.ErrCorrupt)
	}
	c.cfg.Obs.Counter("core.decode.exclusion_retries").Inc()
	return data, nil
}

// downloadItem is a segment's download work: a plan over its recorded
// block locations (minus the excluded block IDs), the stamped
// checksums to verify against, and the coded block size ⌈Length ÷ K⌉
// the dispatcher selects sources for.
func downloadItem(seg *meta.Segment, excluded map[int]bool) (transfer.DownloadItem, error) {
	locations := make(map[int][]string, len(seg.Blocks))
	for _, b := range seg.Blocks {
		if !excluded[b.BlockID] {
			locations[b.BlockID] = append(locations[b.BlockID], b.CloudID)
		}
	}
	plan, err := sched.NewDownloadPlan(seg.K, locations)
	if err != nil {
		return transfer.DownloadItem{}, fmt.Errorf("core: segment %s: %w", seg.ID, err)
	}
	return transfer.DownloadItem{
		Plan:  plan,
		SegID: seg.ID,
		Size:  int64((seg.Length + seg.K - 1) / seg.K),
		Sums:  seg.Sums(),
	}, nil
}

// errDecodeMismatch reports decoded segment bytes failing the content
// SHA-1. Internal only: fetchVerified retries once on a replacement
// block set and surfaces cloud.ErrCorrupt if that fails too.
var errDecodeMismatch = errors.New("core: decoded segment fails content verification")

// decodeAndVerify decodes blocks into segment content, verifies the
// result against seg.ID, and recycles the block buffers on EVERY
// path — success, decode error, or mismatch. On a content mismatch
// (err == errDecodeMismatch) the second result names the block IDs to
// exclude from a retry fetch: the copies indicted by their stamped
// checksums, or — when no checksum points a finger (pre-integrity
// metadata) — every block of the failed set.
func (c *Client) decodeAndVerify(seg *meta.Segment, blocks map[int][]byte) ([]byte, map[int]bool, error) {
	// Download results are caller-owned (cloud.Interface's contract), so
	// nothing else can hold a reference once decoding is done with them.
	defer recycleBlocks(blocks)
	coder, err := erasure.CoderFor(seg.K, seg.N)
	if err != nil {
		return nil, nil, err
	}
	data, err := coder.Decode(blocks, seg.Length)
	if err != nil {
		return nil, nil, fmt.Errorf("core: segment %s: %w", seg.ID, err)
	}
	if chunker.SegmentID(data) == seg.ID {
		return data, nil, nil
	}
	excluded := make(map[int]bool)
	for blockID, b := range blocks {
		if want := seg.BlockSum(blockID); want != 0 && meta.BlockSum(b) != want {
			excluded[blockID] = true
		}
	}
	if len(excluded) == 0 {
		for blockID := range blocks {
			excluded[blockID] = true
		}
	}
	c.cfg.Obs.Counter("core.decode.sha_mismatch").Inc()
	return nil, excluded, errDecodeMismatch
}

// recycleBlocks feeds downloaded coded blocks back to the erasure
// buffer pool.
func recycleBlocks(blocks map[int][]byte) {
	for _, b := range blocks {
		erasure.PutBuffer(b)
	}
}

// fetchFiles reconstructs the content of each snapshot from img's
// segment pool, every segment of every file in one fetchVerified batch
// so that all cloud connections stay busy, and hands file i's bytes to
// done the moment its last segment has verified (the paper's
// availability-first pipeline, on the receive side). It returns the
// first failure in file order — a segment that could not be had, or
// done's own error — so a pass that trips several reports the same one
// every time.
func (c *Client) fetchFiles(ctx context.Context, img *meta.Image, snaps []*meta.Snapshot, done func(i int, data []byte) error) error {
	type file struct {
		parts   [][]byte // segment contents, in order
		missing int
		err     error
	}
	files := make([]file, len(snaps))
	var segs []*meta.Segment
	var owner [][2]int // segs[j] is part owner[j][1] of file owner[j][0]
	for i, snap := range snaps {
		files[i] = file{parts: make([][]byte, len(snap.SegmentIDs)), missing: len(snap.SegmentIDs)}
		for p, id := range snap.SegmentIDs {
			seg, ok := img.Segment(id)
			if !ok {
				return fmt.Errorf("core: file %s references unknown segment %s", snap.Path, id)
			}
			segs, owner = append(segs, seg), append(owner, [2]int{i, p})
		}
	}
	assemble := func(i int) {
		f := &files[i]
		data := make([]byte, 0, snaps[i].Size)
		for _, p := range f.parts {
			data = append(data, p...)
		}
		f.parts = nil
		f.err = done(i, data)
	}
	for i := range files {
		if files[i].missing == 0 {
			assemble(i) // an empty file has no segment to wait for
		}
	}
	err := c.fetchVerified(ctx, segs, func(j int, data []byte, err error) {
		i, p := owner[j][0], owner[j][1]
		f := &files[i]
		if f.err == nil {
			f.err = err
		}
		if f.err != nil {
			return // the file is lost; its other segments are dropped as they arrive
		}
		f.parts[p] = data
		if f.missing--; f.missing == 0 {
			assemble(i)
		}
	})
	if err != nil {
		return err
	}
	for i, f := range files {
		if f.err != nil {
			return fmt.Errorf("core: file %s: %w", snaps[i].Path, f.err)
		}
	}
	return nil
}

// fetchSegment reconstructs one segment's verified content.
func (c *Client) fetchSegment(ctx context.Context, seg *meta.Segment) (data []byte, err error) {
	ferr := c.fetchVerified(ctx, []*meta.Segment{seg}, func(_ int, d []byte, derr error) { data, err = d, derr })
	if ferr != nil {
		return nil, ferr
	}
	return data, err
}

// Get downloads one file's current content directly from the
// multi-cloud using the committed metadata — the library's
// random-access read API (used by the reliability experiments; normal
// sync flows write files into the folder instead).
func (c *Client) Get(ctx context.Context, path string) ([]byte, error) {
	// The delta cursor, not a full fetch: five stamp GETs when nothing
	// is pending, a delta catch-up when something is. The image is
	// shared and only read.
	img, err := c.store.Refresh(ctx)
	if err != nil {
		return nil, err
	}
	snap := img.Lookup(path).Current()
	if snap == nil || snap.Deleted {
		return nil, fmt.Errorf("core: %s not in the sync folder image", path)
	}
	var content []byte
	err = c.fetchFiles(ctx, img, []*meta.Snapshot{snap}, func(_ int, data []byte) error {
		content = data
		return nil
	})
	return content, err
}
