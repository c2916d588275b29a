package main

import (
	"fmt"
	"strings"
	"time"

	"unidrive/internal/chunker"
	"unidrive/internal/core"
	"unidrive/internal/erasure"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/metacrypt"
	"unidrive/internal/sched"
)

// replayBytes caps how much of the workload's own folder the CPU
// layers are replayed on.
const replayBytes = 64 * mb

// replay times the CPU layers directly, one at a time and outside any
// pass, on the files the workload left in A's folder: what each costs
// per MB when nothing else competes for the processor. The numbers
// bound how much of process.cpu_ms_per_mb_* and of the loopback wall
// metrics a faster kernel could save.
func replay(folder localfs.Folder, params sched.Params) ([]metric, error) {
	infos, err := folder.ListAll()
	if err != nil {
		return nil, err
	}
	var files [][]byte
	var total int64
	for _, fi := range infos {
		if strings.HasPrefix(fi.Path, localfs.StatePrefix) || total >= replayBytes {
			continue
		}
		data, err := folder.ReadFile(fi.Path)
		if err != nil {
			return nil, err
		}
		files = append(files, data)
		total += int64(len(data))
	}
	if total == 0 {
		return nil, fmt.Errorf("replay: the workload left no files")
	}
	perSec := func(d time.Duration) float64 { return ratio(toMB(total), d.Seconds()) }

	chnk, err := chunker.New(core.DefaultTheta)
	if err != nil {
		return nil, err
	}
	var segs []chunker.Segment
	t0 := time.Now()
	for _, f := range files {
		segs = append(segs, chnk.Split(f)...)
	}
	split := time.Since(t0)
	t0 = time.Now()
	for _, s := range segs {
		_ = chunker.SegmentID(s.Data)
	}
	sha := time.Since(t0)

	// Encode the normal (fair-share) blocks of every segment at the
	// plan's (k, n), then decode each from its first k blocks.
	coder, err := erasure.NewCoder(params.K, params.CodeN())
	if err != nil {
		return nil, err
	}
	normal := make([]int, params.NormalBlocks())
	for i := range normal {
		normal[i] = i
	}
	var encode, decode time.Duration
	for _, s := range segs {
		size := coder.ShardSize(len(s.Data))
		dst := make([][]byte, len(normal))
		for i := range dst {
			dst[i] = make([]byte, size)
		}
		t0 = time.Now()
		sh := coder.Split(s.Data)
		coder.EncodeBlocksInto(sh, normal, dst)
		sh.Release()
		encode += time.Since(t0)

		have := make(map[int][]byte, params.K)
		for i := 0; i < params.K; i++ {
			have[i] = dst[i]
		}
		out := make([]byte, params.K*size)
		t0 = time.Now()
		if _, err := coder.DecodeInto(out, have, len(s.Data)); err != nil {
			return nil, err
		}
		decode += time.Since(t0)
	}

	// Seal and open what the metadata path seals: an encoded image. A
	// 5000-file image is built here so the number means the same on
	// every workload.
	img := meta.NewImage()
	now := time.Now()
	for i := 0; i < prepopFiles; i++ {
		id := fmt.Sprintf("%040x", i)
		seg := &meta.Segment{ID: id, Length: prepopSize, K: params.K, N: params.CodeN()}
		for blk := 0; blk < params.NormalBlocks(); blk++ {
			seg.AddBlockSum(blk, wanClouds[blk%len(wanClouds)].name, uint32(i+blk+1))
		}
		ch := &meta.Change{
			Type: meta.ChangeAdd, Path: fmt.Sprintf("pre/d%02d/f%04d.bin", i%prepopDirs, i), Time: now,
			Snapshot: &meta.Snapshot{Size: prepopSize, ModTime: now, Device: "device-a", SegmentIDs: []string{id}},
			Segments: []*meta.Segment{seg},
		}
		ch.Snapshot.Path = ch.Path
		if err := img.Apply(ch, "device-a"); err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	plain, err := img.Encode()
	if err != nil {
		return nil, err
	}
	imgEncode := time.Since(t0)
	cipher, err := metacrypt.New(metacrypt.DES, "e2e-bench")
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	sealed, err := cipher.Seal(plain)
	if err != nil {
		return nil, err
	}
	seal := time.Since(t0)
	t0 = time.Now()
	if _, err := cipher.Open(sealed); err != nil {
		return nil, err
	}
	open := time.Since(t0)
	imgMB := toMB(int64(len(plain)))

	n := len(segs)
	return []metric{
		{"chunker.split_mb_s", "MB/s", perSec(split), n},
		{"chunker.sha1_mb_s", "MB/s", perSec(sha), n},
		{"erasure.encode_mb_s", "MB/s", perSec(encode), n},
		{"erasure.decode_mb_s", "MB/s", perSec(decode), n},
		{"metacrypt.seal_mb_s", "MB/s", ratio(imgMB, seal.Seconds()), 1},
		{"metacrypt.open_mb_s", "MB/s", ratio(imgMB, open.Seconds()), 1},
		{"meta.encode_ms_5k", "ms", ms(imgEncode), 1},
	}, nil
}
