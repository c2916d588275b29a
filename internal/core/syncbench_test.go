package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/localfs"
)

// benchPath spreads files over 100 directories like a real folder.
func benchPath(i int) string {
	return fmt.Sprintf("dir%02d/file%06d.txt", i%100, i)
}

// benchClient builds a client over in-memory clouds with nFiles
// already committed — the steady state a long-running device sits in.
func benchClient(tb testing.TB, nFiles int) (*Client, *localfs.Mem) {
	tb.Helper()
	mem := localfs.NewMem()
	var clouds []cloud.Interface
	for i := 0; i < 3; i++ {
		clouds = append(clouds, cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)))
	}
	c, err := New(clouds, mem, Config{
		Device:       "bench",
		Passphrase:   "bench-secret",
		DisableWatch: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	t0 := time.Unix(1_700_000_000, 0)
	for i := 0; i < nFiles; i++ {
		if err := mem.WriteFile(benchPath(i), []byte("seed content of "+benchPath(i)), t0); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := c.SyncOnce(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return c, mem
}

// touchN rewrites `changed` fixed paths with fresh content so the next
// pass sees real edits (the spurious-mtime guard filters no-op writes).
func touchN(tb testing.TB, mem *localfs.Mem, nFiles, changed, rev int) []string {
	tb.Helper()
	paths := make([]string, 0, changed)
	for j := 0; j < changed; j++ {
		p := benchPath((j * 37) % nFiles)
		if err := mem.WriteFile(p, []byte(fmt.Sprintf("rev %d of %s", rev, p)), time.Unix(1_700_000_000+int64(rev), 0)); err != nil {
			tb.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// runPass executes one sync pass in the given mode. Event-driven
// steady state with nothing changed is the remote observer's stamp
// poll (SyncRemote); with dirty paths it is SyncDirty.
func runPass(ctx context.Context, c *Client, mode string, paths []string) error {
	var err error
	switch {
	case mode == "rescan":
		_, err = c.SyncOnce(ctx)
	case len(paths) == 0:
		_, err = c.SyncRemote(ctx)
	default:
		_, err = c.SyncDirty(ctx, paths)
	}
	return err
}

// BenchmarkSyncPass measures one sync pass at 1k/10k/50k files with
// 0, 1, or 100 changed files, comparing the paper's periodic full
// rescan (SyncOnce) against the event-driven pass (SyncDirty /
// SyncRemote). The rescan pass is O(folder); the event pass must stay
// O(changes).
func BenchmarkSyncPass(b *testing.B) {
	ctx := context.Background()
	for _, nFiles := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("files=%d", nFiles), func(b *testing.B) {
			c, mem := benchClient(b, nFiles)
			rev := 0
			for _, changed := range []int{0, 1, 100} {
				for _, mode := range []string{"rescan", "event"} {
					b.Run(fmt.Sprintf("changed=%d/mode=%s", changed, mode), func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							b.StopTimer()
							rev++
							paths := touchN(b, mem, nFiles, changed, rev)
							b.StartTimer()
							if err := runPass(ctx, c, mode, paths); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		})
	}
}

// --- BENCH_sync.json snapshot writer -------------------------------

type syncBenchCell struct {
	RescanMs float64 `json:"rescanMs"`
	EventMs  float64 `json:"eventMs"`
	Speedup  float64 `json:"speedup"`
}

// medianPassMs measures reps passes and returns the median in ms.
func medianPassMs(tb testing.TB, c *Client, mem *localfs.Mem, nFiles, changed int, mode string, rev *int, reps int) float64 {
	tb.Helper()
	ctx := context.Background()
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		*rev++
		paths := touchN(tb, mem, nFiles, changed, *rev)
		start := time.Now()
		if err := runPass(ctx, c, mode, paths); err != nil {
			tb.Fatal(err)
		}
		samples = append(samples, float64(time.Since(start))/float64(time.Millisecond))
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

// TestWriteSyncBenchSnapshot regenerates BENCH_sync.json at the repo
// root. Gated behind UNIDRIVE_WRITE_BENCH=1 so normal test runs stay
// fast:
//
//	UNIDRIVE_WRITE_BENCH=1 go test -run TestWriteSyncBenchSnapshot ./internal/core/
func TestWriteSyncBenchSnapshot(t *testing.T) {
	if os.Getenv("UNIDRIVE_WRITE_BENCH") != "1" {
		t.Skip("set UNIDRIVE_WRITE_BENCH=1 to regenerate BENCH_sync.json")
	}
	const reps = 7
	results := make(map[string]map[string]syncBenchCell)
	for _, nFiles := range []int{1000, 10000, 50000} {
		c, mem := benchClient(t, nFiles)
		rev := 0
		row := make(map[string]syncBenchCell)
		for _, changed := range []int{0, 1, 100} {
			rescan := medianPassMs(t, c, mem, nFiles, changed, "rescan", &rev, reps)
			event := medianPassMs(t, c, mem, nFiles, changed, "event", &rev, reps)
			cell := syncBenchCell{RescanMs: rescan, EventMs: event}
			if event > 0 {
				cell.Speedup = rescan / event
			}
			row[fmt.Sprintf("changed=%d", changed)] = cell
		}
		results[fmt.Sprintf("files=%d", nFiles)] = row
	}

	flat := func(changed string) float64 {
		small := results["files=1000"][changed].EventMs
		big := results["files=50000"][changed].EventMs
		if small <= 0 {
			return 0
		}
		return big / small
	}
	doc := map[string]any{
		"date": time.Now().Format("2006-01-02"),
		"host": map[string]any{
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"cpus":   runtime.NumCPU(),
			"note":   "in-memory folder + 3 in-memory clouds; isolates control-plane pass cost (scan, diff, lock, metadata commit) from network and disk",
		},
		"commands": []string{
			"UNIDRIVE_WRITE_BENCH=1 go test -run TestWriteSyncBenchSnapshot ./internal/core/",
			"go test -run '^$' -bench BenchmarkSyncPass ./internal/core/",
		},
		"workingPoint": map[string]any{
			"clouds": 3, "fileBytes": "~30", "reps": reps, "metric": "median pass latency, ms",
			"modes": map[string]string{
				"rescan": "SyncOnce: full folder scan + remote stamp poll (the paper's periodic pass)",
				"event":  "SyncDirty over the dirty set; for changed=0 the steady-state remote stamp poll (SyncRemote)",
			},
		},
		"results": results,
		"summary": map[string]any{
			"unchanged50kSpeedup":  results["files=50000"]["changed=0"].Speedup,
			"eventFlatness1kTo50k": map[string]float64{"changed=1": flat("changed=1"), "changed=100": flat("changed=100")},
			"flatnessNote":         "event pass latency at fixed change count, 50k files vs 1k files (1.0 = perfectly O(changes))",
		},
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_sync.json", append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_sync.json: 50k unchanged speedup %.1fx, flatness changed=1 %.2fx, changed=100 %.2fx",
		results["files=50000"]["changed=0"].Speedup, flat("changed=1"), flat("changed=100"))
}
