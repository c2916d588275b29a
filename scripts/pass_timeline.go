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
// The slowest cloud is the one whose last block ends last. A pass that
// uploads no block (a delete commit) prints only the lines below.
//
// Then the lock's contact set: the clouds the last round sent a flag
// to, and the pass's lock requests in all. The metadata write wave:
// the instant the stamp poll under the lock decided (its quorum-th
// answer), the first metadata write, the quorum-th version stamp to
// land and the last. Then the end of the hold: the instant the
// commit's last version stamp landed; the last round's shed deletes,
// first start → last end
// (the flag deletes a chain outside the quorum sends as it ends; see
// holdEnd); the release wave, start → end, and its clouds (every other
// flag delete of the round); and the deletes of the blocks the commit
// released, first start → last end. Last, how far the pass's block
// uploads ran past the pass (the reliability tail past the pass), and
// the pass's end against its hold's end (the last release, block delete
// or block upload to end) and the tail: how far the hold ran past the
// pass. The harness tags a request with the pass running when it
// started; the release, block deletes and block uploads a hold's tail
// sends after its pass returned are handed back to that pass
// (holdsOwn). The closing lines are medians over the passes, so a
// parent/change pair of traced runs shows where a saving sits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
)

type span struct {
	Pass       int64
	Dev        string
	Layer, Op  string
	Cloud      string
	Path       string
	Start, End int64
}

type pass struct {
	ID         int64
	Kind       string
	Dev        string
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
	lockClouds := make(map[string]bool)
	for _, s := range holdsOwn(doc.Spans, doc.Passes) {
		byPass[s.Pass] = append(byPass[s.Pass], s)
		if s.Layer == "qlock" {
			lockClouds[s.Cloud] = true
		}
	}
	// A lock round must hold a strict majority of the clouds the lock
	// addresses.
	quorum := len(lockClouds)/2 + 1
	cols := map[string][]float64{}
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	for _, p := range doc.Passes {
		if p.Kind != "commit" {
			continue
		}
		ms := func(t int64) float64 { return float64(t-p.Start) / 1e6 }
		var blocks, locks, gc, polls, stamps, writes []span
		stamped := int64(0)
		for _, s := range byPass[p.ID] {
			switch {
			case s.Layer == "transfer.block" && s.Op == "upload":
				blocks = append(blocks, s)
			case s.Layer == "transfer.block" && s.Op == "delete":
				gc = append(gc, s)
			case s.Layer == "qlock":
				locks = append(locks, s)
			case s.Layer == "deltasync.version" && s.Op == "download":
				polls = append(polls, s)
			case s.Layer == "deltasync.version" && s.Op == "upload":
				stamped = max(stamped, s.End)
				stamps = append(stamps, s)
			case s.Layer == "deltasync.meta" && s.Op == "upload":
				writes = append(writes, s)
			}
		}
		fmt.Printf("pass %d: %.0f ms, %d block uploads\n", p.ID, ms(p.End), len(blocks))
		add("pass", ms(p.End))
		var busy []iv
		if len(blocks) > 0 {
			busy = blockLines(blocks, ms, add, *k, *gap)
		}
		rs := rounds(locks)
		for i, r := range rs {
			share := 100 * float64(overlap(busy, r)) / float64(r.end-r.start)
			held := acquired(locks, r, quorum)
			fmt.Printf("  lock round %d   %8.1f → %.1f  (quorum held at %.1f; block upload in flight %.0f %% of it)\n",
				i+1, ms(r.start), ms(r.end), ms(held), share)
			add(fmt.Sprintf("round %d start", i+1), ms(r.start))
			add(fmt.Sprintf("round %d quorum held", i+1), ms(held))
			add(fmt.Sprintf("round %d end", i+1), ms(r.end))
			add(fmt.Sprintf("round %d under uploads %%", i+1), share)
		}
		if len(rs) > 0 {
			contact(locks, rs[len(rs)-1], add)
			if len(stamps) > 0 {
				metaWave(polls, append(writes, stamps...), stamps, acquired(locks, rs[len(rs)-1], quorum), quorum, ms, add)
			}
		}
		if stamped > 0 {
			fmt.Printf("  stamps landed  %8.1f\n", ms(stamped))
			add("stamps landed", ms(stamped))
		}
		var release []span
		if len(rs) > 0 {
			var shed []span
			shed, release = holdEnd(locks, rs[len(rs)-1], quorum)
			wave("shed deletes", shed, ms, add)
			wave("release wave", release, ms, add)
		}
		wave("block deletes", gc, ms, add)
		reliabilityLine(p, blocks, ms, add)
		tailLine(p, append(append(release, gc...), blocks...), ms, add)
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

// holdsOwn hands every request of a hold's tail back to the commit pass
// whose hold it is. The harness tags a request with the pass running
// when it started (and drops one started between passes), and a hold's
// release, block deletes and the reliability second of its upload may
// start after its pass has returned, inside the device's next pass or
// another device's: a lock flag delete goes to the pass whose round
// uploaded that flag; a block upload to the device's last commit pass
// to have started uploads of the same segment before it (a batch
// uploads K blocks of every segment before its pass commits); and a
// block delete to the last pass of its device to have started its
// metadata writes before it (a pass joins the last hold's tail before
// it writes).
func holdsOwn(spans []span, passes []pass) []span {
	commits := make(map[int64]bool)
	for _, p := range passes {
		if p.Kind == "commit" {
			commits[p.ID] = true
		}
	}
	owner := make(map[string]int64) // lock flag path -> the pass that uploaded it
	type mark struct{ at, pass int64 }
	first := make(map[int64]mark) // pass -> its first metadata write
	dev := make(map[int64]string)
	uploaders := make(map[string][]mark) // device and segment -> the commit passes uploading it, by first upload
	for _, s := range spans {
		switch {
		case s.Pass == 0:
		case s.Layer == "qlock" && s.Op == "upload":
			owner[s.Path] = s.Pass
		case strings.HasPrefix(s.Layer, "deltasync.") && s.Op == "upload":
			if m, ok := first[s.Pass]; !ok || s.Start < m.at {
				first[s.Pass], dev[s.Pass] = mark{s.Start, s.Pass}, s.Dev
			}
		case s.Layer == "transfer.block" && s.Op == "upload" && commits[s.Pass]:
			key := s.Dev + " " + blockSegment(s.Path)
			if i := slices.IndexFunc(uploaders[key], func(m mark) bool { return m.pass == s.Pass }); i < 0 {
				uploaders[key] = append(uploaders[key], mark{s.Start, s.Pass})
			} else {
				uploaders[key][i].at = min(uploaders[key][i].at, s.Start)
			}
		}
	}
	writes := make(map[string][]mark) // device -> its passes' first metadata writes, by time
	for id, m := range first {
		writes[dev[id]] = append(writes[dev[id]], m)
	}
	for _, groups := range []map[string][]mark{writes, uploaders} {
		for _, ms := range groups {
			sort.Slice(ms, func(i, j int) bool { return ms[i].at < ms[j].at })
		}
	}
	last := func(ms []mark, at int64) (int64, bool) {
		if j := sort.Search(len(ms), func(j int) bool { return ms[j].at > at }); j > 0 {
			return ms[j-1].pass, true
		}
		return 0, false
	}
	out := make([]span, len(spans))
	for i, s := range spans {
		switch {
		case s.Layer == "qlock" && s.Op == "delete" && owner[s.Path] != 0:
			s.Pass = owner[s.Path]
		case s.Layer == "transfer.block" && s.Op == "delete":
			if p, ok := last(writes[s.Dev], s.Start); ok {
				s.Pass = p
			}
		case s.Layer == "transfer.block" && s.Op == "upload":
			if p, ok := last(uploaders[s.Dev+" "+blockSegment(s.Path)], s.Start); ok {
				s.Pass = p
			}
		}
		out[i] = s
	}
	return out
}

// blockSegment is the segment a block file belongs to.
func blockSegment(path string) string { return path[:strings.LastIndex(path, ".")] }

// reliabilityLine prints how far the pass's block uploads — the
// reliability second of its batch — ran past the pass: zero when the
// pass waited for its batch.
func reliabilityLine(p pass, blocks []span, ms func(int64) float64, add func(string, float64)) {
	if len(blocks) == 0 {
		return
	}
	end := blocks[0].End
	for _, b := range blocks {
		end = max(end, b.End)
	}
	past := max(0, ms(end)-ms(p.End))
	fmt.Printf("  reliability tail past the pass %.1f\n", past)
	add("reliability tail past the pass", past)
}

// tailLine prints the pass's end against its hold's — the last release,
// block delete or block upload to end — and how far the hold ran past
// the pass (its tail; zero when the pass waited for it).
func tailLine(p pass, hold []span, ms func(int64) float64, add func(string, float64)) {
	if len(hold) == 0 {
		return
	}
	end := hold[0].End
	for _, s := range hold {
		end = max(end, s.End)
	}
	past := max(0, ms(end)-ms(p.End))
	fmt.Printf("  pass end %8.1f, hold end %.1f: tail past the pass %.1f\n", ms(p.End), ms(end), past)
	add("hold end", ms(end))
	add("tail past the pass", past)
}

// blockLines prints a pass's block-upload lines and returns the merged
// intervals during which a block upload was in flight.
func blockLines(blocks []span, ms func(int64) float64, add func(string, float64), k int, gap float64) []iv {
	first, last := blocks[0].Start, blocks[0].End
	landed := make(map[string][]int64) // segment -> block end times
	byCloud := make(map[string][]iv)
	var busy []iv
	for _, b := range blocks {
		first, last = min(first, b.Start), max(last, b.End)
		seg := blockSegment(b.Path)
		landed[seg] = append(landed[seg], b.End)
		byCloud[b.Cloud] = append(byCloud[b.Cloud], iv{b.Start, b.End})
		busy = append(busy, iv{b.Start, b.End})
	}
	avail := int64(0)
	for _, ends := range landed {
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		if len(ends) >= k {
			avail = max(avail, ends[k-1])
		}
	}
	fmt.Printf("  %d segments\n  first block    %8.1f\n  available      %8.1f\n  last block end %8.1f\n", len(landed), ms(first), ms(avail), ms(last))
	add("first block", ms(first))
	add("available", ms(avail))
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
			if g > gap {
				gaps = append(gaps, fmt.Sprintf("%.0f→%.0f", ms(u[i-1].end), ms(u[i].start)))
			}
		}
		if end := u[len(u)-1].end; end > slowestEnd {
			slowest, slowestEnd, slowestGap = c, end, worst
		}
		fmt.Printf("  %-8s %2d blocks %7.1f → %-7.1f idle > %.0f ms: %s\n", c, len(byCloud[c]), ms(u[0].start), ms(u[len(u)-1].end), gap, strings.Join(gaps, " "))
	}
	fmt.Printf("  slowest cloud %s, longest idle gap %.1f ms\n", slowest, slowestGap)
	add("slowest cloud's longest idle gap", slowestGap)
	return union(busy)
}

// contact prints the clouds round r sent a flag to, and the pass's lock
// requests in all.
func contact(locks []span, r iv, add func(string, float64)) {
	clouds := make(map[string]bool)
	for _, s := range locks {
		if s.Op == "upload" && s.Start >= r.start && s.End <= r.end {
			clouds[s.Cloud] = true
		}
	}
	names := make([]string, 0, len(clouds))
	for c := range clouds {
		names = append(names, c)
	}
	sort.Strings(names)
	fmt.Printf("  lock contact   %d clouds (%s), %d lock requests in the pass\n", len(names), strings.Join(names, " "), len(locks))
	add("lock contact clouds", float64(len(names)))
	add("lock requests", float64(len(locks)))
}

// metaWave prints the metadata write wave of a commit: the stamp poll's
// decision — the q-th answer to land of the version reads sent once
// the lock was held at held — then the first metadata write, the q-th
// version stamp to land and the last.
func metaWave(polls, writes, stamps []span, held int64, q int, ms func(int64) float64, add func(string, float64)) {
	var answers []int64
	for _, s := range polls {
		if s.Start >= held {
			answers = append(answers, s.End)
		}
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i] < answers[j] })
	first := writes[0].Start
	for _, s := range writes {
		first = min(first, s.Start)
	}
	ends := make([]int64, len(stamps))
	for i, s := range stamps {
		ends[i] = s.End
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	quorumAt := ends[min(q, len(ends))-1]
	if len(answers) > 0 {
		decided := answers[min(q, len(answers))-1]
		fmt.Printf("  metadata wave  poll decided %.1f → first write %.1f → quorum stamped %.1f → last stamp %.1f (%d stamps)\n",
			ms(decided), ms(first), ms(quorumAt), ms(ends[len(ends)-1]), len(ends))
		add("meta poll decided", ms(decided))
	} else {
		fmt.Printf("  metadata wave  first write %.1f → quorum stamped %.1f → last stamp %.1f (%d stamps)\n",
			ms(first), ms(quorumAt), ms(ends[len(ends)-1]), len(ends))
	}
	add("meta first write", ms(first))
	add("meta quorum stamped", ms(quorumAt))
	add("meta last stamp", ms(ends[len(ends)-1]))
}

// holdEnd splits the flag deletes of round r into the shed — a delete
// on a cloud outside the quorum that its chain sent as it ended: within
// a millisecond of that cloud's list — and the release: every other
// flag delete of the round. The quorum is the q clouds whose lists
// ended first. A dump of a build that does not shed shows no shed: its
// deletes all start after the commit.
func holdEnd(locks []span, r iv, q int) (shed, release []span) {
	var lists, deletes []span
	for _, s := range locks {
		if s.Start < r.start || s.End > r.end {
			continue
		}
		switch s.Op {
		case "list":
			lists = append(lists, s)
		case "delete":
			deletes = append(deletes, s)
		}
	}
	sort.Slice(lists, func(i, j int) bool { return lists[i].End < lists[j].End })
	listed := make(map[string]int64) // cloud -> its list's end
	inQuorum := make(map[string]bool)
	for i, s := range lists {
		listed[s.Cloud] = s.End
		inQuorum[s.Cloud] = i < q
	}
	for _, s := range deletes {
		if end, ok := listed[s.Cloud]; ok && !inQuorum[s.Cloud] && s.Start >= end && s.Start-end < 1e6 {
			shed = append(shed, s)
		} else {
			release = append(release, s)
		}
	}
	return shed, release
}

// wave prints the first start → last end of a group of requests, with
// their clouds, and adds both instants to the medians.
func wave(name string, ss []span, ms func(int64) float64, add func(string, float64)) {
	if len(ss) == 0 {
		return
	}
	first, last := ss[0].Start, ss[0].End
	clouds := make(map[string]bool)
	for _, s := range ss {
		first, last = min(first, s.Start), max(last, s.End)
		clouds[s.Cloud] = true
	}
	names := make([]string, 0, len(clouds))
	for c := range clouds {
		names = append(names, c)
	}
	sort.Strings(names)
	fmt.Printf("  %-14s %8.1f → %.1f  (%d on %s)\n", name, ms(first), ms(last), len(ss), strings.Join(names, " "))
	add(name+" start", ms(first))
	add(name+" end", ms(last))
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

// acquired is the instant round r held a quorum: the end of the q-th of
// its lock-directory lists to finish (the round's end when it listed
// fewer clouds).
func acquired(locks []span, r iv, q int) int64 {
	var ends []int64
	for _, s := range locks {
		if s.Op == "list" && s.Start >= r.start && s.End <= r.end {
			ends = append(ends, s.End)
		}
	}
	if len(ends) < q {
		return r.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	return ends[q-1]
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
