package baseline

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/netsim"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

func directClouds(n int) ([]cloud.Interface, []*cloudsim.Flaky) {
	var clouds []cloud.Interface
	var flakies []*cloudsim.Flaky
	for i := 0; i < n; i++ {
		f := cloudsim.NewFlaky(cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)), 0, int64(i+1))
		flakies = append(flakies, f)
		clouds = append(clouds, f)
	}
	return clouds, flakies
}

func randData(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestNativeRoundTrip(t *testing.T) {
	clouds, _ := directClouds(1)
	n := NewNative(clouds[0], 4, 4096, 2)
	data := randData(1, 20_000) // several chunks
	if err := n.Upload(context.Background(), "file.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := n.Download(context.Background(), "file.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("native round trip corrupted data")
	}
}

func TestNativeEmptyFile(t *testing.T) {
	clouds, _ := directClouds(1)
	n := NewNative(clouds[0], 2, 4096, 0)
	if err := n.Upload(context.Background(), "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := n.Download(context.Background(), "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file returned %d bytes", len(got))
	}
}

func TestNativeConnsTable(t *testing.T) {
	if NativeConns("dropbox") != 8 || NativeConns("onedrive") != 2 || NativeConns("gdrive") != 4 {
		t.Fatal("native connection allowances diverge from the paper")
	}
	if NativeOverheadCalls("dropbox") <= NativeOverheadCalls("onedrive") {
		t.Fatal("dropbox should model the highest overhead (Table 3)")
	}
}

func TestIntuitiveRoundTrip(t *testing.T) {
	clouds, _ := directClouds(5)
	var natives []*Native
	for _, c := range clouds {
		natives = append(natives, NewNative(c, 4, 4096, 1))
	}
	iv := NewIntuitive(natives, 2048)
	data := randData(2, 17_000)
	if err := iv.Upload(context.Background(), "multi.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := iv.Download(context.Background(), "multi.bin", len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("intuitive round trip corrupted data")
	}
}

func TestIntuitiveBlockedByOneOutage(t *testing.T) {
	// The intuitive design has no redundancy: one cloud down means
	// the file is unreadable (this is exactly why UniDrive codes).
	clouds, flakies := directClouds(5)
	var natives []*Native
	for _, c := range clouds {
		natives = append(natives, NewNative(c, 4, 4096, 0))
	}
	iv := NewIntuitive(natives, 2048)
	data := randData(3, 10_000)
	if err := iv.Upload(context.Background(), "fragile.bin", data); err != nil {
		t.Fatal(err)
	}
	flakies[2].SetDown(true)
	if _, err := iv.Download(context.Background(), "fragile.bin", len(data)); err == nil {
		t.Fatal("intuitive download survived an outage; it must not")
	}
}

func TestBenchmarkRoundTrip(t *testing.T) {
	clouds, _ := directClouds(5)
	params := sched.Params{N: 5, K: 3, Kr: 3, Ks: 2}
	b, err := NewBenchmark(clouds, params, 5)
	if err != nil {
		t.Fatal(err)
	}
	data := randData(4, 30_000)
	if err := b.Upload(context.Background(), "coded.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := b.Download(context.Background(), "coded.bin", len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("benchmark round trip corrupted data")
	}
}

func TestBenchmarkSurvivesOutagesUpToReliability(t *testing.T) {
	clouds, flakies := directClouds(5)
	params := sched.Params{N: 5, K: 3, Kr: 3, Ks: 2}
	b, err := NewBenchmark(clouds, params, 5)
	if err != nil {
		t.Fatal(err)
	}
	data := randData(5, 12_000)
	if err := b.Upload(context.Background(), "coded.bin", data); err != nil {
		t.Fatal(err)
	}
	flakies[0].SetDown(true)
	flakies[1].SetDown(true) // Kr=3 clouds remain
	got, err := b.Download(context.Background(), "coded.bin", len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("benchmark failed within its reliability budget")
	}
}

func TestBenchmarkValidation(t *testing.T) {
	clouds, _ := directClouds(2)
	if _, err := NewBenchmark(clouds, sched.Params{N: 5, K: 3, Kr: 3, Ks: 2}, 5); err == nil {
		t.Fatal("cloud-count mismatch accepted")
	}
}

func TestIntuitiveSlowestCloudDominates(t *testing.T) {
	// One slow cloud out of three: the intuitive multi-cloud must be
	// slower than the benchmark coded one, which only needs k of n
	// blocks. This is the heart of the paper's Figure 11 ordering.
	clk := vclock.NewWorld(time.Unix(0, 0))
	cfg := netsim.DefaultConfig(3)
	cfg.DegradedProb = 0
	profiles := []netsim.CloudProfile{
		{Name: "f1", UpMbps: 40, DownMbps: 40, PerConnMbps: 20, Sigma: 0.0001},
		{Name: "f2", UpMbps: 40, DownMbps: 40, PerConnMbps: 20, Sigma: 0.0001},
		{Name: "slow", UpMbps: 1, DownMbps: 1, PerConnMbps: 1, Sigma: 0.0001},
	}
	env := netsim.NewEnv(clk, cfg, profiles)
	host := env.NewHost(netsim.LocationProfile{Name: "here", UplinkMbps: 10000, DownlinkMbps: 10000})
	var clouds []cloud.Interface
	for _, p := range profiles {
		clouds = append(clouds, cloudsim.NewClient(cloudsim.NewStore(p.Name, 0), host))
	}
	data := randData(6, 1<<20)

	var natives []*Native
	for _, c := range clouds {
		natives = append(natives, NewNative(c, 4, 1<<20, 0))
	}
	iv := NewIntuitive(natives, 256<<10)
	start := clk.Now()
	if err := iv.Upload(context.Background(), "f", data); err != nil {
		t.Fatal(err)
	}
	intuitiveTime := clk.Now().Sub(start)

	params := sched.Params{N: 3, K: 2, Kr: 2, Ks: 1}
	bm, err := NewBenchmark(clouds, params, 4)
	if err != nil {
		t.Fatal(err)
	}
	start = clk.Now()
	if err := bm.Upload(context.Background(), "g", data); err != nil {
		t.Fatal(err)
	}
	benchTime := clk.Now().Sub(start)
	// Both still wait on the slow cloud's fair share for upload, but
	// intuitive pushes ~1/3 of all data through the 1 Mbps cloud
	// while benchmark pushes a coded fair share. The decisive gap is
	// on download, where benchmark can skip the slow cloud entirely.
	start = clk.Now()
	if _, err := iv.Download(context.Background(), "f", len(data)); err != nil {
		t.Fatal(err)
	}
	intuitiveDown := clk.Now().Sub(start)
	start = clk.Now()
	if _, err := bm.Download(context.Background(), "g", len(data)); err != nil {
		t.Fatal(err)
	}
	benchDown := clk.Now().Sub(start)

	if benchDown >= intuitiveDown {
		t.Fatalf("benchmark download %v not faster than intuitive %v", benchDown, intuitiveDown)
	}
	t.Logf("upload: intuitive %v vs benchmark %v; download: %v vs %v",
		intuitiveTime, benchTime, intuitiveDown, benchDown)
}

func TestParallelHelperPropagatesError(t *testing.T) {
	err := parallel(context.Background(), 10, 3, func(i int) error {
		if i == 7 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
}

func TestParallelHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_ = parallel(ctx, 100, 2, func(i int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled parallel ran everything")
	}
}
