// Command e2e is the end-to-end sync benchmark: it drives the unmodified
// UniDrive stack through its public entry points (core.New wired as
// cmd/unidrive wires it, Client.SyncDirty/SyncOnce/SyncRemote, cloudhttp
// over loopback TCP to in-process cloudhttp servers) with two devices
// sharing five cloud stores, and reports what a user would see plus, in
// a traced run, which layer owns the time and the requests.
//
//	go run . -workload edits_wan [-seed 1] [-seconds 20] [-trace 1] [-quick] [-repeat N] [-out dir]
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its world up; setup_s is
// the median, the last world is the one measured.
const setupRepeats = 3

func main() {
	name := flag.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated file bytes and op sequence")
	seconds := flag.Float64("seconds", 20, "how long the measured part runs (minimum sample counts may extend it)")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer ledger instead of the end-to-end metrics")
	quick := flag.Bool("quick", false, "smoke mode: a tenth of the time and of the minimum sample counts")
	repeat := flag.Int("repeat", 0, "run the workload N times in fresh processes (seeds seed..seed+N-1) and print each metric's spread")
	out := flag.String("out", "benchmarks/out", "directory the traced run writes spans-<workload>.json into")
	flag.Parse()

	wl, ok := findWorkload(*name)
	if !ok || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2e: -workload must be one of %s\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var err error
	if *repeat > 0 {
		err = runRepeat(*repeat, *name, *seed, *seconds, *trace, *quick, *out)
	} else {
		err = runOnce(wl, *seed, *seconds, *trace != 0, *quick, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOnce(wl workload, seed int64, seconds float64, traced, quick bool, outDir string) error {
	ctx := context.Background()
	if quick {
		seconds /= 10
	}
	b := &bench{
		ctx:     ctx,
		wl:      wl,
		seed:    seed,
		origin:  time.Now(),
		rng:     rand.New(rand.NewSource(seed)),
		seconds: seconds,
		quick:   quick,
		pending: make(map[string]bool),
	}
	if traced {
		b.tr = &tracer{origin: b.origin}
	}
	defer func() {
		if b.w != nil {
			b.w.close()
		}
	}()

	// Set the world up several times and keep the last: setup_s is the
	// median, so one slow start does not read as a regression.
	for i := 0; i < setupRepeats; i++ {
		if err := b.freshWorld(); err != nil {
			return err
		}
	}

	b.recording = true
	runStart := time.Now()
	b.deadline = runStart.Add(time.Duration(seconds * float64(time.Second)))
	if err := wl.run(b); err != nil {
		return err
	}
	measured := time.Since(runStart)

	e2e := endToEnd(b.passes, b.setups)
	fmt.Printf("workload %s seed %d trace %v quick %v: %d commit, %d apply, %d idle passes measured in %.1f s (closed loop, one driver, one device active at a time)\n",
		wl.name, seed, traced, quick,
		len(only(b.passes, passCommit)), len(only(b.passes, passApply)), len(only(b.passes, passIdle)), measured.Seconds())
	fmt.Println("end-to-end:")
	printMetrics(e2e)
	if p90, n, ok := commitP90(b.passes); ok {
		printMetrics([]metric{{"commit_p90_ms", "ms", p90, n}})
	}
	fmt.Printf("  %-36s %14.4f %-6s (%d of %d passes, set-up included)\n", "failed_ops_pct", 100*ratio(float64(b.failed), float64(b.attempted)), "%", b.failed, b.attempted)
	for _, f := range b.failures {
		fmt.Println("  FAILED", f)
	}

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	reported := e2e
	if traced {
		layers, sumsOK, err := ledger(b, outDir)
		if err != nil {
			return err
		}
		fmt.Println("per-layer:")
		printMetrics(layers)
		res.Correct = res.Correct && sumsOK
		reported = layers
	}
	for _, m := range reported {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d passes failed or the ledger did not sum", b.failed, b.attempted)
	}
	return nil
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("  %-36s %14.4f %-6s (n=%d)\n", m.name, m.value, m.unit, m.n)
	}
}
