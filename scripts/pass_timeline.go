//go:build ignore

// pass_timeline prints where the time of each commit pass went, from
// the span dump of a traced benchmark run:
//
//	bash benchmarks/run.sh --workload bigfile_wan --seed 1 --seconds 15 --trace 1
//	go run scripts/pass_timeline.go benchmarks/out/spans-bigfile_wan.json
//
// Per commit pass, in milliseconds since the pass started: the first
// block upload's start, the availability instant (the K-th landed block
// of the last segment to get K), every quorum-lock round's start and
// end with the share of it during which a block upload was in flight,
// the last block upload's end, and, per cloud, the gaps longer than
// -gap inside its own upload (first block start to last block end).
// The slowest cloud is the one whose last block ends last. The closing
// lines are medians over the passes, so a parent/change pair of traced
// runs shows where a saving sits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type span struct {
	Pass       int64
	Layer, Op  string
	Cloud      string
	Path       string
	Start, End int64
}

type pass struct {
	ID         int64
	Kind       string
	Start, End int64
}

type iv struct{ start, end int64 }

func main() {
	k := flag.Int("k", 3, "blocks a segment needs to be available")
	gap := flag.Float64("gap", 5, "report per-cloud idle gaps longer than this many ms")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/pass_timeline.go [-k 3] [-gap 5] spans-<workload>.json")
		os.Exit(2)
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var doc struct {
		Workload string
		Passes   []pass
		Spans    []span
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	byPass := make(map[int64][]span)
	for _, s := range doc.Spans {
		byPass[s.Pass] = append(byPass[s.Pass], s)
	}
	cols := map[string][]float64{}
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	for _, p := range doc.Passes {
		if p.Kind != "commit" {
			continue
		}
		ms := func(t int64) float64 { return float64(t-p.Start) / 1e6 }
		var blocks, locks []span
		for _, s := range byPass[p.ID] {
			switch {
			case s.Layer == "transfer.block" && s.Op == "upload":
				blocks = append(blocks, s)
			case s.Layer == "qlock":
				locks = append(locks, s)
			}
		}
		if len(blocks) == 0 {
			continue
		}
		first, last := blocks[0].Start, blocks[0].End
		landed := make(map[string][]int64) // segment -> block end times
		byCloud := make(map[string][]iv)
		var busy []iv
		for _, b := range blocks {
			first, last = min(first, b.Start), max(last, b.End)
			seg := b.Path[:strings.LastIndex(b.Path, ".")]
			landed[seg] = append(landed[seg], b.End)
			byCloud[b.Cloud] = append(byCloud[b.Cloud], iv{b.Start, b.End})
			busy = append(busy, iv{b.Start, b.End})
		}
		busy = union(busy)
		avail := int64(0)
		for _, ends := range landed {
			sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
			if len(ends) >= *k {
				avail = max(avail, ends[*k-1])
			}
		}
		fmt.Printf("pass %d: %.0f ms, %d block uploads, %d segments\n", p.ID, ms(p.End), len(blocks), len(landed))
		fmt.Printf("  first block    %8.1f\n  available      %8.1f\n", ms(first), ms(avail))
		add("pass", ms(p.End))
		add("first block", ms(first))
		add("available", ms(avail))
		for i, r := range rounds(locks) {
			share := 100 * float64(overlap(busy, r)) / float64(r.end-r.start)
			fmt.Printf("  lock round %d   %8.1f → %.1f  (block upload in flight %.0f %% of it)\n", i+1, ms(r.start), ms(r.end), share)
			add(fmt.Sprintf("round %d start", i+1), ms(r.start))
			add(fmt.Sprintf("round %d end", i+1), ms(r.end))
			add(fmt.Sprintf("round %d under uploads %%", i+1), share)
		}
		fmt.Printf("  last block end %8.1f\n", ms(last))
		add("last block end", ms(last))
		names := make([]string, 0, len(byCloud))
		for c := range byCloud {
			names = append(names, c)
		}
		sort.Strings(names)
		slowest, slowestEnd, slowestGap := "", int64(0), 0.0
		for _, c := range names {
			u := union(byCloud[c])
			worst := 0.0
			var gaps []string
			for i := 1; i < len(u); i++ {
				g := float64(u[i].start-u[i-1].end) / 1e6
				worst = max(worst, g)
				if g > *gap {
					gaps = append(gaps, fmt.Sprintf("%.0f→%.0f", ms(u[i-1].end), ms(u[i].start)))
				}
			}
			if end := u[len(u)-1].end; end > slowestEnd {
				slowest, slowestEnd, slowestGap = c, end, worst
			}
			fmt.Printf("  %-8s %2d blocks %7.1f → %-7.1f idle > %.0f ms: %s\n", c, len(byCloud[c]), ms(u[0].start), ms(u[len(u)-1].end), *gap, strings.Join(gaps, " "))
		}
		fmt.Printf("  slowest cloud %s, longest idle gap %.1f ms\n", slowest, slowestGap)
		add("slowest cloud's longest idle gap", slowestGap)
	}
	names := make([]string, 0, len(cols))
	for n := range cols {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n%s: medians over commit passes (ms since pass start)\n", doc.Workload)
	for _, n := range names {
		v := cols[n]
		sort.Float64s(v)
		fmt.Printf("  %-34s %8.1f  (n=%d)\n", n, v[len(v)/2], len(v))
	}
}

// rounds groups a pass's lock requests into acquire-to-release rounds:
// a flag upload after the previous round's first flag delete opens the
// next one.
func rounds(locks []span) []iv {
	sort.Slice(locks, func(i, j int) bool { return locks[i].Start < locks[j].Start })
	var out []iv
	releasing := true
	for _, s := range locks {
		if releasing && s.Op == "upload" {
			out = append(out, iv{s.Start, s.End})
			releasing = false
		}
		if len(out) == 0 {
			continue
		}
		r := &out[len(out)-1]
		r.end = max(r.end, s.End)
		if s.Op == "delete" {
			releasing = true
		}
	}
	return out
}

// union merges overlapping intervals, sorted by start.
func union(in []iv) []iv {
	sort.Slice(in, func(i, j int) bool { return in[i].start < in[j].start })
	var out []iv
	for _, x := range in {
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, x.end)
			continue
		}
		out = append(out, x)
	}
	return out
}

// overlap is the part of r that the merged intervals cover.
func overlap(merged []iv, r iv) (ns int64) {
	for _, x := range merged {
		if lo, hi := max(x.start, r.start), min(x.end, r.end); hi > lo {
			ns += hi - lo
		}
	}
	return ns
}
