// Package baseline implements the three comparison systems of the
// paper's evaluation (§7.1):
//
//   - Native: a single-cloud CCS client app. It chunks files and
//     transfers them over the provider's allowed number of concurrent
//     connections, with a small amount of per-file protocol overhead
//     — the paper's "official native apps" as observed from their
//     traffic.
//   - Intuitive: the naive multi-cloud — chunk a file into blocks and
//     spread them round-robin into the sync folders of N native apps.
//     No coding: EVERY block is needed, so the transfer completes
//     only when the slowest cloud finishes (the paper finds this the
//     worst performer).
//   - Benchmark: the traditional erasure-coded multi-cloud in the
//     style of RACS/DepSky — k-of-n coding with a static uniform
//     block distribution and parallel transfer, but neither
//     over-provisioning nor dynamic scheduling. It aggregates clouds
//     but is dragged down by slow ones, achieving the paper's
//     "medium level of performance".
//
// All three speak only cloud.Interface, like UniDrive itself.
package baseline

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"unidrive/internal/cloud"
	"unidrive/internal/erasure"
	"unidrive/internal/sched"
)

// Native models one provider's official client app.
type Native struct {
	cloud cloud.Interface
	// conns is the app's concurrent-connection allowance (paper §7.1:
	// Dropbox allows 8, OneDrive only 2).
	conns int
	// chunkSize is the app's transfer chunk (4 MB, the point where
	// the measured throughput gain flattens).
	chunkSize int
	// overheadCalls models per-file protocol round trips (commit,
	// notification) beyond raw data transfer.
	overheadCalls int
}

// NativeConns returns the connection allowance the paper reports (or
// implies) for each provider's native app.
func NativeConns(provider string) int {
	switch provider {
	case "dropbox":
		return 8
	case "onedrive":
		return 2
	default:
		return 4
	}
}

// NativeOverheadCalls returns the modeled per-file protocol calls of
// each provider's native app, tuned so batch-sync overhead lands in
// the range of the paper's Table 3 (Dropbox highest at ~7%).
func NativeOverheadCalls(provider string) int {
	switch provider {
	case "dropbox":
		return 10
	case "onedrive":
		return 3
	default:
		return 2
	}
}

// NewNative wraps one cloud in a native-app model.
func NewNative(c cloud.Interface, conns, chunkSize, overheadCalls int) *Native {
	if conns <= 0 {
		conns = 4
	}
	if chunkSize <= 0 {
		chunkSize = 4 << 20
	}
	return &Native{cloud: c, conns: conns, chunkSize: chunkSize, overheadCalls: overheadCalls}
}

// manifest records how a file was chunked, so another device can
// reassemble it.
type manifest struct {
	Size   int `json:"size"`
	Chunks int `json:"chunks"`
}

func manifestPath(name string) string { return "native/" + name + ".manifest" }
func chunkPath(name string, i int) string {
	return fmt.Sprintf("native/%s.chunk%d", name, i)
}

// parallel runs fn(i) for i in [0, n) over at most conns goroutines
// and returns the first error.
func parallel(ctx context.Context, n, conns int, fn func(i int) error) error {
	if conns > n {
		conns = n
	}
	if conns < 1 {
		conns = 1
	}
	sem := make(chan struct{}, conns)
	errCh := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				errCh <- ctx.Err()
				return
			}
			errCh <- fn(i)
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}

// retried wraps an operation in the engine-equivalent retry loop so
// baselines are not unfairly penalized by transient failures.
func retried(ctx context.Context, op func() error) error {
	return cloud.Retry(ctx, cloud.RetryPolicy{MaxAttempts: 3}, op)
}

// Upload stores a file through the native app.
func (n *Native) Upload(ctx context.Context, name string, data []byte) error {
	chunks := (len(data) + n.chunkSize - 1) / n.chunkSize
	if chunks == 0 {
		chunks = 1
	}
	err := parallel(ctx, chunks, n.conns, func(i int) error {
		lo := i * n.chunkSize
		hi := lo + n.chunkSize
		if hi > len(data) {
			hi = len(data)
		}
		return retried(ctx, func() error {
			return n.cloud.Upload(ctx, chunkPath(name, i), data[lo:hi])
		})
	})
	if err != nil {
		return fmt.Errorf("baseline: native upload %s: %w", name, err)
	}
	m, err := json.Marshal(manifest{Size: len(data), Chunks: chunks})
	if err != nil {
		return err
	}
	if err := retried(ctx, func() error {
		return n.cloud.Upload(ctx, manifestPath(name), m)
	}); err != nil {
		return fmt.Errorf("baseline: native manifest %s: %w", name, err)
	}
	// Protocol overhead round trips (status, commit, notification).
	for i := 0; i < n.overheadCalls; i++ {
		if _, err := n.cloud.List(ctx, "native"); err != nil {
			// Overhead traffic failing does not fail the sync.
			break
		}
	}
	return nil
}

// Download retrieves a file through the native app.
func (n *Native) Download(ctx context.Context, name string) ([]byte, error) {
	var mdata []byte
	if err := retried(ctx, func() error {
		var derr error
		mdata, derr = n.cloud.Download(ctx, manifestPath(name))
		return derr
	}); err != nil {
		return nil, fmt.Errorf("baseline: native manifest %s: %w", name, err)
	}
	var m manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		return nil, fmt.Errorf("baseline: manifest %s: %w", name, err)
	}
	parts := make([][]byte, m.Chunks)
	err := parallel(ctx, m.Chunks, n.conns, func(i int) error {
		return retried(ctx, func() error {
			var derr error
			parts[i], derr = n.cloud.Download(ctx, chunkPath(name, i))
			return derr
		})
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: native download %s: %w", name, err)
	}
	out := make([]byte, 0, m.Size)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Intuitive is the naive multi-cloud: blocks round-robined into N
// native apps' folders.
type Intuitive struct {
	natives   []*Native
	blockSize int
}

// NewIntuitive builds the intuitive multi-cloud over the given native
// apps.
func NewIntuitive(natives []*Native, blockSize int) *Intuitive {
	if blockSize <= 0 {
		blockSize = 1 << 20
	}
	return &Intuitive{natives: natives, blockSize: blockSize}
}

// Upload splits the file and syncs every part through its native
// app; it completes only when ALL apps finish.
func (iv *Intuitive) Upload(ctx context.Context, name string, data []byte) error {
	blocks := (len(data) + iv.blockSize - 1) / iv.blockSize
	if blocks == 0 {
		blocks = 1
	}
	// Each native app syncs its own round-robin share of the blocks,
	// all apps in parallel.
	err := parallel(ctx, len(iv.natives), len(iv.natives), func(ci int) error {
		for b := ci; b < blocks; b += len(iv.natives) {
			lo := b * iv.blockSize
			hi := lo + iv.blockSize
			if hi > len(data) {
				hi = len(data)
			}
			if err := iv.natives[ci].Upload(ctx, fmt.Sprintf("%s.part%d", name, b), data[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("baseline: intuitive upload: %w", err)
	}
	return nil
}

// Download reassembles the file; every part file is required, so a
// single unavailable cloud blocks the whole read.
func (iv *Intuitive) Download(ctx context.Context, name string, size int) ([]byte, error) {
	blocks := (size + iv.blockSize - 1) / iv.blockSize
	if blocks == 0 {
		blocks = 1
	}
	parts := make([][]byte, blocks)
	err := parallel(ctx, len(iv.natives), len(iv.natives), func(ci int) error {
		for b := ci; b < blocks; b += len(iv.natives) {
			var err error
			if parts[b], err = iv.natives[ci].Download(ctx, fmt.Sprintf("%s.part%d", name, b)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: intuitive download: %w", err)
	}
	out := make([]byte, 0, size)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Benchmark is the traditional erasure-coded multi-cloud (RACS /
// DepSky style): k-of-n coding, static uniform distribution, parallel
// transfer, no over-provisioning, no dynamic scheduling.
type Benchmark struct {
	clouds []cloud.Interface
	params sched.Params
	coder  *erasure.Coder
	conns  int

	// OnAvailable, when set, is invoked once per Upload at the moment
	// the K-th block lands — when the file becomes available to the
	// multi-cloud. Experiments use it to measure the paper's
	// "available time" metric for the benchmark system.
	OnAvailable func()
}

// NewBenchmark builds the benchmark system with the same coding
// parameters UniDrive uses, for an apples-to-apples comparison.
func NewBenchmark(clouds []cloud.Interface, params sched.Params, conns int) (*Benchmark, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(clouds) != params.N {
		return nil, fmt.Errorf("baseline: %d clouds for N=%d", len(clouds), params.N)
	}
	coder, err := erasure.NewCoder(params.K, params.NormalBlocks())
	if err != nil {
		return nil, err
	}
	if conns <= 0 {
		conns = 5
	}
	return &Benchmark{clouds: clouds, params: params, coder: coder, conns: conns}, nil
}

func benchBlockPath(name string, blockID int) string {
	return fmt.Sprintf("bench/%s.%d", name, blockID)
}

// Upload codes the file and pushes every cloud's fair share in
// parallel; it returns when ALL normal blocks are stored (static
// assignment — a slow cloud holds up completion).
func (b *Benchmark) Upload(ctx context.Context, name string, data []byte) error {
	blocks := b.coder.Encode(data)
	var done atomic.Int32
	var availOnce sync.Once
	noteDone := func() {
		if int(done.Add(1)) >= b.params.K && b.OnAvailable != nil {
			availOnce.Do(b.OnAvailable)
		}
	}
	err := parallel(ctx, len(b.clouds), len(b.clouds), func(ci int) error {
		// Cloud ci statically owns blocks ci, ci+N, ci+2N, ...
		var ids []int
		for id := ci; id < len(blocks); id += len(b.clouds) {
			ids = append(ids, id)
		}
		return parallel(ctx, len(ids), b.conns, func(j int) error {
			err := retried(ctx, func() error {
				return b.clouds[ci].Upload(ctx, benchBlockPath(name, ids[j]), blocks[ids[j]])
			})
			if err == nil {
				noteDone()
			}
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("baseline: benchmark upload: %w", err)
	}
	return nil
}

// Download statically fetches the first K block IDs from their owning
// clouds — no reranking by speed, no substitution of faster sources
// (beyond failure fallback to the remaining parity blocks).
func (b *Benchmark) Download(ctx context.Context, name string, size int) ([]byte, error) {
	need := b.params.K
	got := make(map[int][]byte, need)
	var mu sync.Mutex

	tryFetch := func(id int) error {
		c := b.clouds[id%len(b.clouds)]
		return retried(ctx, func() error {
			data, err := c.Download(ctx, benchBlockPath(name, id))
			if err != nil {
				return err
			}
			mu.Lock()
			got[id] = data
			mu.Unlock()
			return nil
		})
	}
	// First K block IDs in parallel.
	firstErrs := make([]error, need)
	err := parallel(ctx, need, need, func(i int) error {
		firstErrs[i] = tryFetch(i)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Fall back to remaining parity blocks for any failures.
	nextID := need
	for len(got) < need && nextID < b.params.NormalBlocks() {
		_ = tryFetch(nextID)
		nextID++
	}
	if len(got) < need {
		return nil, fmt.Errorf("baseline: benchmark download %s: only %d/%d blocks", name, len(got), need)
	}
	return b.coder.Decode(got, size)
}
