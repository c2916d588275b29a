package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"unidrive/internal/deltasync"
	"unidrive/internal/journal"
	"unidrive/internal/qlock"
	"unidrive/internal/transfer"
)

func TestPartitionPrioritiesAndSum(t *testing.T) {
	// Pass [0,100). A lock call covers [10,50), a block transfer
	// [30,70) outranks it where they overlap, a journal write [60,90)
	// is outranked by the transfer until 70, and a version poll that
	// starts before the pass and one that ends after it are clipped.
	ivs := []interval{
		{10, 50, clsLock},
		{30, 70, clsBlock},
		{60, 90, clsJournal},
		{-20, 5, clsVersion},
		{95, 130, clsVersion},
	}
	shares, waves, blockNS := partition(0, 100, ivs)
	want := [numClasses]int64{}
	want[clsVersion] = 5 + 5
	want[clsLock] = 20    // [10,30)
	want[clsBlock] = 40   // [30,70)
	want[clsJournal] = 20 // [70,90)
	want[clsSelf] = 5 + 5 // [5,10) and [90,95)
	if shares != want {
		t.Fatalf("shares = %v, want %v", shares, want)
	}
	var sum int64
	for _, v := range shares {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("shares sum to %d, want the pass length 100", sum)
	}
	// Remote requests in flight: [0,5), [10,70), [95,100): three waves.
	// The journal write is local and opens none.
	if waves != 3 {
		t.Fatalf("waves = %d, want 3", waves)
	}
	if blockNS != 40 {
		t.Fatalf("blockNS = %d, want 40", blockNS)
	}
}

func TestPartitionOverlapWithinClass(t *testing.T) {
	// Five parallel block requests count once for ownership, five times
	// for occupancy, and form one wave; a back-to-back request that
	// starts the instant they end extends the wave.
	var ivs []interval
	for i := 0; i < 5; i++ {
		ivs = append(ivs, interval{0, 10, clsBlock})
	}
	ivs = append(ivs, interval{10, 20, clsMeta})
	shares, waves, blockNS := partition(0, 30, ivs)
	if shares[clsBlock] != 10 || shares[clsMeta] != 10 || shares[clsSelf] != 10 {
		t.Fatalf("shares = %v", shares)
	}
	if waves != 1 {
		t.Fatalf("waves = %d, want 1", waves)
	}
	if blockNS != 50 {
		t.Fatalf("blockNS = %d, want 50", blockNS)
	}
}

func TestPartitionRandomSumsToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var ivs []interval
		for i := rng.Intn(40); i > 0; i-- {
			s := rng.Int63n(1200) - 100
			ivs = append(ivs, interval{s, s + rng.Int63n(300), class(rng.Intn(int(clsSelf)))})
		}
		shares, _, _ := partition(0, 1000, ivs)
		var sum int64
		for _, v := range shares {
			if v < 0 {
				t.Fatalf("negative share in %v", shares)
			}
			sum += v
		}
		if sum != 1000 {
			t.Fatalf("trial %d: shares sum to %d, want 1000", trial, sum)
		}
	}
}

func TestClassifyAgainstLayoutConstants(t *testing.T) {
	remote := map[string]class{
		transfer.DefaultBlockDir:                       clsBlock,
		transfer.DefaultBlockDir + "/0123abcd.4":       clsBlock,
		deltasync.DefaultDir:                           clsMeta,
		deltasync.DefaultDir + "/base":                 clsMeta,
		deltasync.DefaultDir + "/delta":                clsMeta,
		deltasync.DefaultDir + "/delta.v000000000012":  clsMeta,
		deltasync.DefaultDir + "/version":              clsVersion,
		qlock.DefaultLockDir:                           clsLock,
		qlock.DefaultLockDir + "/lock_device-a_17":     clsLock,
		transfer.DefaultBlockDir + "x/not-a-block-dir": clsOther,
		"docs/user-file.txt":                           clsOther,
	}
	for path, want := range remote {
		if got := classifyRemote(path); got != want {
			t.Errorf("classifyRemote(%q) = %v, want %v", path, got, want)
		}
	}
	local := map[string]class{
		journal.Path:         clsJournal,
		statePath:            clsCheckpoint,
		"big/slot0.bin":      clsLocalFS,
		"":                   clsLocalFS, // ListAll has no path
		journal.Path + ".bk": clsLocalFS,
	}
	for path, want := range local {
		if got := classifyLocal(path); got != want {
			t.Errorf("classifyLocal(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return vs
	}
	if v, ok := percentile(seq(100), 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, supported", v, ok)
	}
	if _, ok := percentile(seq(99), 90); ok {
		t.Errorf("p90 of 99 samples reported as supported (only 9 beyond it)")
	}
	if v, ok := percentile(seq(20), 50); v != 10 || !ok {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, supported", v, ok)
	}
	if _, ok := percentile(seq(19), 50); ok {
		t.Errorf("p50 of 19 samples reported as supported")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Errorf("percentile of nothing reported as supported")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestEditSequenceIsSeedDeterministicAndKeepsTheMix(t *testing.T) {
	draw := func(seed int64) []editOp {
		g := newEditGen(rand.New(rand.NewSource(seed)), warmEditPaths)
		ops := make([]editOp, 200)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	a, b := draw(42), draw(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different op sequences")
	}
	if reflect.DeepEqual(a, draw(43)) {
		t.Fatal("different seeds drew the same op sequence")
	}
	live := map[string]bool{}
	for _, p := range warmEditPaths {
		live[p] = true
	}
	for start := 0; start < len(a); start += 100 {
		count := map[string]int{}
		for _, op := range a[start : start+100] {
			count[op.kind]++
		}
		if count["add"] != 60 || count["edit"] != 30 || count["delete"] != 10 {
			t.Errorf("commits %d..%d mix = %v, want 60/30/10", start, start+100, count)
		}
	}
	for i, op := range a {
		switch op.kind {
		case "add":
			if live[op.path] {
				t.Fatalf("op %d adds %s, which exists", i, op.path)
			}
			live[op.path] = true
		case "edit", "delete":
			if !live[op.path] {
				t.Fatalf("op %d %ss %s, which does not exist", i, op.kind, op.path)
			}
			if op.kind == "delete" {
				delete(live, op.path)
			}
		}
	}
}
