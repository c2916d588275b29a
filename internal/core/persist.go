package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"unidrive/internal/deltasync"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
)

// The client checkpoints its device-local state inside the sync
// folder, under localfs.StatePrefix (which the folder scanner never
// reports as user content), as a base plus a delta log — the paper's
// delta-sync layout (§5.2, Fig 13) pointed at the local state file:
//
//   - statePath is the base: the committed image this device had
//     applied at some version Vb, and the full scanner baseline;
//   - deltaPath(1), deltaPath(2), … hold what each later applying pass
//     changed: the committed records it advanced over and the scanner-
//     baseline entries of the paths it touched.
//
// A pass therefore persists O(changes) bytes. When the deltas outgrow
// deltasync.Lambda of the base, the base is rewritten and the deltas
// deleted, which keeps the amortized cost O(1) per changed byte.
const statePath = localfs.StatePrefix + "state.json"

func deltaPath(n int) string {
	return fmt.Sprintf("%sstate.delta.%06d", localfs.StatePrefix, n)
}

// stateFormat is persistentState.Format for the base + delta layout.
// The single-blob files written before it carry no format field.
const stateFormat = 2

// persistentState is the checkpoint base: the device's view of the
// committed metadata (Algorithm 1's v_o) and the folder baseline the
// scanner compared against. With both, a restarted client detects
// edits made while it was down as ordinary local changes instead of
// re-discovering the whole folder.
type persistentState struct {
	Format int `json:"format"`
	// Device guards against reusing another device's state file.
	Device string `json:"device"`
	// SavedAt is informational.
	SavedAt time.Time `json:"savedAt"`
	// Image is the last committed metadata this device observed.
	Image json.RawMessage `json:"image"`
	// Baseline is the folder state at the last completed sync.
	Baseline []localfs.FileInfo `json:"baseline"`
}

// encodeStateBase serializes a checkpoint base.
func encodeStateBase(device string, savedAt time.Time, img *meta.Image, baseline []localfs.FileInfo) ([]byte, error) {
	imgData, err := img.Encode()
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(&persistentState{
		Format:   stateFormat,
		Device:   device,
		SavedAt:  savedAt,
		Image:    imgData,
		Baseline: baseline,
	})
	if err != nil {
		return nil, fmt.Errorf("core: encoding state: %w", err)
	}
	return data, nil
}

// stateDelta is one applying pass's change to the persisted state.
type stateDelta struct {
	// Records are the committed metadata records the pass advanced
	// over, in the store's own record encoding; the first one's version
	// is the persisted head + 1.
	Records []deltasync.Record `json:"records"`
	// Upserts and Removals are the scanner-baseline entries of the
	// paths touched since the previous checkpoint.
	Upserts  []localfs.FileInfo `json:"upserts,omitempty"`
	Removals []string           `json:"removals,omitempty"`
}

// deltaMagic opens every delta file, followed by the payload's length
// and CRC-32 and a newline. Deltas are written in place (no fsync per
// pass), so a crash can tear one; the frame makes that detectable.
const deltaMagic = "unidrive-state-delta"

func encodeStateDelta(d *stateDelta) ([]byte, error) {
	payload, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("core: encoding state delta: %w", err)
	}
	header := fmt.Sprintf("%s %d %08x\n", deltaMagic, len(payload), crc32.ChecksumIEEE(payload))
	return append([]byte(header), payload...), nil
}

// errDamagedDelta reports a torn, short or otherwise damaged delta
// file.
var errDamagedDelta = errors.New("core: damaged state delta")

// decodeStateDelta decodes one delta file: errDamagedDelta when its
// frame does not hold, the decoder's error when its payload does not
// decode.
func decodeStateDelta(data []byte) (d stateDelta, err error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return d, errDamagedDelta
	}
	var magic string
	var length int
	var sum uint32
	if n, err := fmt.Sscanf(string(data[:nl]), "%s %d %x", &magic, &length, &sum); n != 3 || err != nil {
		return d, errDamagedDelta
	}
	payload := data[nl+1:]
	if magic != deltaMagic || length != len(payload) || sum != crc32.ChecksumIEEE(payload) {
		return d, errDamagedDelta
	}
	return d, json.Unmarshal(payload, &d)
}

// checkpointLog describes the checkpoint files in the folder.
type checkpointLog struct {
	// head is the image version the files restore to.
	head int64
	// nextDelta numbers the delta file the next checkpoint writes.
	nextDelta int
	// baseBytes and deltaBytes are the sizes the λ rule compares.
	baseBytes, deltaBytes int
}

// checkpointState is what the checkpoint files restore to.
type checkpointState struct {
	checkpointLog
	img      *meta.Image
	baseline map[string]localfs.FileInfo
	// truncated reports that replay stopped at a damaged or
	// non-chaining delta rather than at the end of the log.
	truncated bool
}

// restoreCheckpoint decodes a base and replays the deltas after it.
// readDelta returns delta file n, or an error wrapping
// localfs.ErrNotExist past the end: the Folder interface cannot list
// the private prefix, so the log is probed 1, 2, … until the first
// missing file. reason is a ColdStart* constant when the base cannot
// be used; a bad delta never discards the base, it ends the replay at
// the last state the files chain to. Metadata in an old format (no
// block checksums, or segments named by SHA-1), in the base or in a
// delta, is neither: it is refused with meta.ErrOldFormat, for the
// folder to be re-synced.
func restoreCheckpoint(device string, base []byte, readDelta func(n int) ([]byte, error)) (st checkpointState, reason string, err error) {
	var ps persistentState
	if err := json.Unmarshal(base, &ps); err != nil {
		return st, ColdStartCorrupt, nil
	}
	if ps.Format != stateFormat {
		return st, ColdStartLegacyFormat, nil
	}
	if ps.Device != device {
		return st, ColdStartForeignDevice, nil
	}
	img, err := meta.DecodeImage(ps.Image)
	if errors.Is(err, meta.ErrOldFormat) {
		return st, "", err
	}
	if err != nil {
		return st, ColdStartCorruptImage, nil
	}
	st = checkpointState{
		checkpointLog: checkpointLog{head: img.Version, baseBytes: len(base)},
		img:           img,
		baseline:      make(map[string]localfs.FileInfo, len(ps.Baseline)),
	}
	for _, fi := range ps.Baseline {
		st.baseline[fi.Path] = fi
	}
	for st.nextDelta = 1; ; st.nextDelta++ {
		data, err := readDelta(st.nextDelta)
		if errors.Is(err, localfs.ErrNotExist) {
			return st, "", nil
		}
		if err != nil {
			return st, "", err
		}
		d, err := decodeStateDelta(data)
		if errors.Is(err, meta.ErrOldFormat) {
			return st, "", err
		}
		if err != nil || len(d.Records) == 0 {
			st.truncated = true
			return st, "", nil
		}
		if d.Records[len(d.Records)-1].Version <= st.head {
			// Left over from before the base was last rewritten (a crash
			// between the rewrite and the deletes): everything in it is
			// already in the base. Skipped by version, like deltasync's
			// frozen chunks.
			continue
		}
		next, err := deltasync.Replay(st.img, d.Records)
		if err != nil {
			st.truncated = true
			return st, "", nil
		}
		st.img, st.head = next, next.Version
		for _, fi := range d.Upserts {
			st.baseline[fi.Path] = fi
		}
		for _, path := range d.Removals {
			delete(st.baseline, path)
		}
		st.deltaBytes += len(data)
	}
}

// checkpointCursor is the client's view of its checkpoint files, kept
// so the next pass can extend them. Client.writer guards it: every
// checkpoint and every baseline change is a writer's.
type checkpointCursor struct {
	// The log is zero (nextDelta == 0) until this process has loaded or
	// written a base: only then does it describe the files.
	checkpointLog
	// dirty holds the paths whose scanner-baseline entry may have
	// changed since the last checkpoint.
	dirty map[string]struct{}
}

// noteDirty marks path for the next delta: the scanner's baseline
// entry for it changed (a scan event or a self-write suppression).
func (c *Client) noteDirty(path string) {
	if c.ckpt.dirty == nil {
		c.ckpt.dirty = make(map[string]struct{})
	}
	c.ckpt.dirty[path] = struct{}{}
}

// accept moves the scanner's baseline past events the pass handled and
// marks their paths for the next checkpoint delta.
func (c *Client) accept(files []eventFile) {
	for _, f := range files {
		c.scanner.Accept(f.ev)
		c.noteDirty(f.ev.Info.Path)
	}
}

// suppress records a self-write with the scanner and marks the path
// for the next checkpoint delta.
func (c *Client) suppress(path string, size int64, modTime time.Time, removed bool) {
	c.scanner.Suppress(path, size, modTime, removed)
	c.noteDirty(path)
}

// checkpoint persists the state an applying pass just reached, so a
// restarted client resumes from it instead of rediscovering the
// folder. It appends a delta when the store's record chain covers the
// span from the persisted head to the current image, and rewrites the
// base when it does not (a full fetch after a base rotation, the first
// checkpoint of a process that restored nothing) or when the deltas
// have outgrown λ. Best effort: a failed checkpoint leaves the cursor
// where it was, so the next one covers the wider span.
func (c *Client) checkpoint() error {
	start := c.cfg.Clock.Now()
	img := c.lastImage()
	n, err := c.appendDelta(img)
	if err != nil {
		return err
	}
	if n == 0 {
		if n, err = c.writeBase(img); err != nil {
			return err
		}
	}
	c.cfg.Obs.Histogram("core.checkpoint.bytes").Observe(float64(n))
	c.cfg.Obs.Histogram("core.checkpoint.ms").Observe(float64(c.cfg.Clock.Now().Sub(start)) / float64(time.Millisecond))
	return nil
}

// appendDelta writes the next delta file and returns its size,
// or 0 when the base must be rewritten instead.
func (c *Client) appendDelta(img *meta.Image) (int, error) {
	ck := &c.ckpt
	if ck.nextDelta == 0 || img.Version <= ck.head {
		return 0, nil
	}
	records, ok := c.store.RecordsSince(ck.head, img.Version)
	if !ok {
		return 0, nil
	}
	paths := make([]string, 0, len(ck.dirty))
	for p := range ck.dirty {
		paths = append(paths, p)
	}
	d := stateDelta{Records: records}
	d.Upserts, d.Removals = c.scanner.BaselineFor(paths)
	data, err := encodeStateDelta(&d)
	if err != nil {
		return 0, err
	}
	if ck.deltaBytes+len(data) > deltasync.Lambda(ck.baseBytes) {
		return 0, nil
	}
	if err := c.folder.WriteFile(deltaPath(ck.nextDelta), data, c.cfg.Clock.Now()); err != nil {
		return 0, err
	}
	ck.head = img.Version
	ck.nextDelta++
	ck.deltaBytes += len(data)
	ck.dirty = nil
	c.cfg.Obs.Counter("core.checkpoint.deltas").Inc()
	return len(data), nil
}

// writeBase rewrites the base at img and deletes the delta files
// it supersedes. The base goes through the folder's durable write when
// it has one: a crash while truncating a multi-megabyte state file in
// place would cost a cold start. A crash between the rewrite and the
// deletes is harmless — LoadState skips the leftovers by version.
func (c *Client) writeBase(img *meta.Image) (int, error) {
	data, err := encodeStateBase(c.cfg.Device, c.cfg.Clock.Now(), img, c.scanner.Baseline())
	if err != nil {
		return 0, err
	}
	write := c.folder.WriteFile
	if dw, ok := c.folder.(localfs.DurableWriter); ok {
		write = dw.WriteFileDurable
	}
	if err := write(statePath, data, c.cfg.Clock.Now()); err != nil {
		return 0, err
	}
	c.ckpt.checkpointLog = checkpointLog{head: img.Version, nextDelta: 1, baseBytes: len(data)}
	c.ckpt.dirty = nil
	c.cfg.Obs.Counter("core.checkpoint.compactions").Inc()
	for n := 1; ; n++ {
		if _, err := c.folder.Stat(deltaPath(n)); err != nil {
			break
		}
		if err := c.folder.Remove(deltaPath(n)); err != nil {
			break
		}
	}
	return len(data), nil
}

// SaveState forces a compaction: it rewrites the checkpoint base at
// the client's current state and deletes the delta log, once the last
// hold has ended (hold.go). Applying passes checkpoint
// incrementally on their own; this is for tools and for RunLoop's exit,
// where the next start should read one file and no lock release or
// block delete of this device is left behind.
func (c *Client) SaveState() error {
	c.writer.Lock()
	defer c.writer.Unlock()
	c.last.Wait()
	_, err := c.writeBase(c.lastImage())
	return err
}

// Cold-start reasons returned by LoadState, also the suffix of the
// "core.coldstart.<reason>" counter bumped for each. A cold start is
// correct but expensive (the whole folder re-chunks on the next scan),
// so an unexpected one — corrupt state where a checkpoint should be,
// a foreign device's file — must not pass silently.
const (
	// ColdStartFresh: no state file — a genuinely new folder.
	ColdStartFresh = "fresh"
	// ColdStartCorrupt: the state file exists but does not parse.
	ColdStartCorrupt = "corrupt"
	// ColdStartLegacyFormat: the state file is in the single-blob shape
	// written before the base + delta layout.
	ColdStartLegacyFormat = "legacy_format"
	// ColdStartForeignDevice: the state file belongs to another device.
	ColdStartForeignDevice = "foreign_device"
	// ColdStartCorruptImage: the state parsed but its embedded
	// metadata image does not decode.
	ColdStartCorruptImage = "corrupt_image"
)

// LoadState restores the checkpoint: the base, then delta 1, 2, …
// until the first missing, damaged or non-chaining one (the latter two
// bump core.checkpoint.truncated and cost only the passes after it).
// restored is false for a cold start; reason then says why (one of the
// ColdStart* constants), and the matching core.coldstart.<reason>
// counter is bumped so surprising cold starts surface in the obs
// tables instead of only as a mysteriously slow first sync. Call it
// once, before the first SyncOnce.
func (c *Client) LoadState() (restored bool, reason string, err error) {
	c.writer.Lock()
	defer c.writer.Unlock()
	base, err := c.folder.ReadFile(statePath)
	if errors.Is(err, localfs.ErrNotExist) {
		return false, c.coldStart(ColdStartFresh), nil
	}
	if err != nil {
		return false, "", err
	}
	st, reason, err := restoreCheckpoint(c.cfg.Device, base, func(n int) ([]byte, error) {
		return c.folder.ReadFile(deltaPath(n))
	})
	if err != nil {
		return false, "", err
	}
	if reason != "" {
		return false, c.coldStart(reason), nil
	}
	if st.truncated {
		c.cfg.Obs.Counter("core.checkpoint.truncated").Inc()
	}
	baseline := make([]localfs.FileInfo, 0, len(st.baseline))
	for _, fi := range st.baseline {
		baseline = append(baseline, fi)
	}
	c.setLast(st.img)
	c.scanner.Restore(baseline)
	c.ckpt.checkpointLog, c.ckpt.dirty = st.checkpointLog, nil
	return true, "", nil
}

// coldStart counts a cold-start reason and returns it.
func (c *Client) coldStart(reason string) string {
	c.cfg.Obs.Counter("core.coldstart." + reason).Inc()
	return reason
}
