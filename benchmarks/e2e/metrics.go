package main

import "time"

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value
}

// requestOverheadBytes is the HTTP header cost charged per request in
// sync_overhead_pct (the paper's Table 3 accounting; netsim's default).
const requestOverheadBytes = 600

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func toMB(n int64) float64 { return float64(n) / mb }

// only returns the recorded passes of one kind.
func only(passes []passRec, kind passKind) []passRec {
	var out []passRec
	for _, p := range passes {
		if p.kind == kind {
			out = append(out, p)
		}
	}
	return out
}

func walls(passes []passRec) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = ms(p.wall)
	}
	return out
}

// commitP90 is the p90 wall time of the single-file (below bulkBytes)
// commit passes, and whether the run has the hundred of them a p90
// needs. It catches what a median hides: base rotations, chunk freezes.
func commitP90(passes []passRec) (float64, int, bool) {
	commits := small(only(passes, passCommit))
	v, ok := percentile(walls(commits), 90)
	return v, len(commits), ok
}

// processCPU is the process's CPU cost of the commit and apply passes.
// It is not an end-to-end metric: across fresh processes it repeats
// only within 15-20 % on the WAN workloads, and on the LAN workload,
// which is processor-bound, wall time says the same thing.
func processCPU(passes []passRec) []metric {
	commits, applies := only(passes, passCommit), only(passes, passApply)
	sum := func(ps []passRec) (cpu float64, bytes int64) {
		for _, p := range ps {
			if p.userBytes > 0 {
				cpu += ms(p.cpu)
				bytes += p.userBytes
			}
		}
		return cpu, bytes
	}
	cpus := make([]float64, len(commits))
	for i, p := range commits {
		cpus[i] = ms(p.cpu)
	}
	upCPU, upBytes := sum(commits)
	downCPU, downBytes := sum(applies)
	return []metric{
		{"process.cpu_ms_per_commit", "ms", median(cpus), len(commits)},
		{"process.cpu_ms_per_mb_up", "ms/MB", ratio(upCPU, toMB(upBytes)), len(commits)},
		{"process.cpu_ms_per_mb_down", "ms/MB", ratio(downCPU, toMB(downBytes)), len(applies)},
	}
}

// bulkBytes is the user-byte size from which a pass counts as bulk
// movement for the throughput metrics.
const bulkBytes = 1 * mb

// carriers returns the passes a throughput metric is taken over: those
// that carried at least bulkBytes, or, in a workload that has none
// (edits_wan), every pass that carried any byte.
func carriers(passes []passRec) []passRec {
	var bulk, any []passRec
	for _, p := range passes {
		if p.userBytes >= bulkBytes {
			bulk = append(bulk, p)
		}
		if p.userBytes > 0 {
			any = append(any, p)
		}
	}
	if len(bulk) > 0 {
		return bulk
	}
	return any
}

// small returns the passes a latency metric is taken over: those below
// bulkBytes, or, in a workload that has none (bigfile_wan, batch_wan),
// every pass. So mixed_lan_5k's hundred single-file commits are its
// latency samples and its 16 MB rounds its throughput samples, however
// many of each there are.
func small(passes []passRec) []passRec {
	var out []passRec
	for _, p := range passes {
		if p.userBytes < bulkBytes {
			out = append(out, p)
		}
	}
	if len(out) > 0 {
		return out
	}
	return passes
}

// throughput is MB/s over a workload's carrying passes: the mean user
// bytes of a pass over the median time of a pass. The median keeps one
// slow round (a GC cycle, a page-fault burst: on loopback a 32 MB round
// varies 3x within a run) from moving the number; the mean keeps
// edits_wan's applies, which carry one to four files each, comparable.
func throughput(passes []passRec, dur func(passRec) time.Duration) (float64, int) {
	cs := carriers(passes)
	if len(cs) == 0 {
		return 0, 0
	}
	var bytes int64
	secs := make([]float64, len(cs))
	for i, p := range cs {
		bytes += p.userBytes
		secs[i] = dur(p).Seconds()
	}
	return ratio(toMB(bytes)/float64(len(cs)), median(secs)), len(cs)
}

// endToEnd computes the metrics a user of the system would see, from
// the timed (or traced) run's pass records. Every one is defined on
// every workload.
func endToEnd(passes []passRec, setups []float64) []metric {
	commits, applies, idles := only(passes, passCommit), only(passes, passApply), only(passes, passIdle)

	wall := func(p passRec) time.Duration { return p.wall }
	commitWalls, applyWalls := walls(small(commits)), walls(small(applies))
	avail, nUp := throughput(commits, func(p passRec) time.Duration { return p.avail })
	up, _ := throughput(commits, wall)
	down, nDown := throughput(applies, wall)

	var commitTraffic, allTraffic traffic
	var userUp int64
	for _, p := range commits {
		commitTraffic.add(p.traffic)
		userUp += p.userBytes
	}
	for _, p := range passes {
		allTraffic.add(p.traffic)
	}
	var bytesUp int64
	for _, v := range commitTraffic.up {
		bytesUp += v
	}
	blockBytes := allTraffic.up[clsBlock] + allTraffic.down[clsBlock]
	wire := allTraffic.bytes() + requestOverheadBytes*allTraffic.requests()

	return []metric{
		{"setup_s", "s", median(setups), len(setups)},
		{"upload_available_mb_s", "MB/s", avail, nUp},
		{"upload_pass_mb_s", "MB/s", up, nUp},
		{"download_mb_s", "MB/s", down, nDown},
		{"commit_p50_ms", "ms", median(commitWalls), len(commitWalls)},
		{"apply_p50_ms", "ms", median(applyWalls), len(applyWalls)},
		{"idle_poll_ms", "ms", median(walls(idles)), len(idles)},
		{"requests_per_commit", "count", ratio(float64(commitTraffic.requests()), float64(len(commits))), len(commits)},
		{"upload_amplification", "ratio", ratio(float64(bytesUp), float64(userUp)), len(commits)},
		{"sync_overhead_pct", "%", 100 * ratio(float64(wire-blockBytes), float64(blockBytes)), len(passes)},
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
