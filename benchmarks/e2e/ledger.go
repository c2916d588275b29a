package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"unidrive/internal/deltasync"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
)

// connBudget is the program's block-connection budget: five clouds
// times transfer.DefaultConnsPerCloud.
var connBudget = float64(len(wanClouds) * transfer.DefaultConnsPerCloud)

// baseline is what the traced run reads when a world's set-up ends, so
// that set-up does not count in the ledger.
type baseline struct {
	obsA, obsB obs.Snapshot
	serverNS   [numRemote + 1]int64
}

// folded sums, over every world of the traced run, what the devices'
// registries and the servers counted after that world's set-up.
type folded struct {
	base       baseline
	cntA, cntB map[string]int64
	serverNS   [numRemote + 1]int64
}

// fold adds the current world's counters since its baseline to the
// totals; call it before the world is closed and before the ledger.
func (b *bench) fold() {
	if b.tr == nil {
		return
	}
	f := &b.folded
	if f.cntA == nil {
		f.cntA, f.cntB = make(map[string]int64), make(map[string]int64)
	}
	now := b.readBaseline()
	for name, v := range now.obsA.Counters {
		f.cntA[name] += v - f.base.obsA.Counter(name)
	}
	for name, v := range now.obsB.Counters {
		f.cntB[name] += v - f.base.obsB.Counter(name)
	}
	for i := range f.serverNS {
		f.serverNS[i] += now.serverNS[i] - f.base.serverNS[i]
	}
	f.base = now
}

func (b *bench) serverNS() (ns [numRemote + 1]int64) {
	for _, d := range []*device{b.w.a, b.w.b} {
		for _, c := range d.served {
			for i := range ns {
				ns[i] += c.serverNS[i].Load()
			}
		}
	}
	return ns
}

func (b *bench) readBaseline() baseline {
	return baseline{b.w.a.reg.Snapshot(), b.w.b.reg.Snapshot(), b.serverNS()}
}

// tracedPass is a pass with its spans and its wall attribution.
type tracedPass struct {
	passRec
	spans   []span
	shares  [numClasses]int64
	waves   int
	blockNS int64
}

func intervalsOf(spans []span) []interval {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End, s.cls}
	}
	return ivs
}

func spanMS(s span) float64 { return float64(s.End-s.Start) / 1e6 }

// ledger turns the traced run's spans, counters and registry snapshots
// into the per-layer metrics, prints where each pass kind's wall time
// went, and reports whether every pass's shares summed to its wall
// time within 1 %.
func ledger(b *bench, outDir string) ([]metric, bool, error) {
	b.fold()
	spans := b.tr.take()
	byPass := make(map[int64][]span)
	for _, s := range spans {
		byPass[s.Pass] = append(byPass[s.Pass], s)
	}
	var passes []tracedPass
	var sumErr float64
	for _, p := range b.passes {
		tp := tracedPass{passRec: p, spans: byPass[p.id]}
		tp.shares, tp.waves, tp.blockNS = partition(p.start, p.end, intervalsOf(tp.spans))
		var sum int64
		for _, v := range tp.shares {
			sum += v
		}
		sumErr = max(sumErr, 100*math.Abs(float64(sum-(p.end-p.start)))/float64(p.end-p.start))
		passes = append(passes, tp)
	}
	of := func(kind passKind) (out []tracedPass) {
		for _, p := range passes {
			if p.kind == kind {
				out = append(out, p)
			}
		}
		return out
	}
	commits, applies, idles := of(passCommit), of(passApply), of(passIdle)
	// Per-commit medians follow the end-to-end latency rule: over the
	// commits below bulkBytes, or over all when there are none.
	var latency []tracedPass
	for _, p := range commits {
		if p.userBytes < bulkBytes {
			latency = append(latency, p)
		}
	}
	if len(latency) == 0 {
		latency = commits
	}

	// Where the wall time of each pass kind went. Shares sum to the
	// kind's total by construction.
	fmt.Println("wall-time ledger (every instant to the highest-priority class in flight):")
	totals := func(ps []tracedPass) (shares [numClasses]int64, wall int64) {
		for _, p := range ps {
			for c, v := range p.shares {
				shares[c] += v
			}
			wall += p.end - p.start
		}
		return shares, wall
	}
	for _, k := range []struct {
		name string
		ps   []tracedPass
	}{{"commit", commits}, {"apply", applies}, {"idle", idles}} {
		shares, wall := totals(k.ps)
		fmt.Printf("  %-6s %4d passes %10.1f ms:", k.name, len(k.ps), float64(wall)/1e6)
		for c, v := range shares {
			fmt.Printf(" %s %.1f%%", class(c), 100*ratio(float64(v), float64(wall)))
		}
		fmt.Println()
	}
	sharePct := func(ps []tracedPass, classes ...class) float64 {
		shares, wall := totals(ps)
		var v int64
		for _, c := range classes {
			v += shares[c]
		}
		return 100 * ratio(float64(v), float64(wall))
	}
	// medianMS is the per-pass median of the time the classes owned.
	medianMS := func(ps []tracedPass, classes ...class) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			for _, c := range classes {
				vs[i] += float64(p.shares[c]) / 1e6
			}
		}
		return median(vs)
	}

	// Server-counted requests and bytes per class and pass kind.
	trafficOf := func(ps []tracedPass) (t traffic) {
		for _, p := range ps {
			t.add(p.traffic)
		}
		return t
	}
	ct, at, it := trafficOf(commits), trafficOf(applies), trafficOf(idles)
	nC, nA, nI := float64(len(commits)), float64(len(applies)), float64(len(idles))
	metaReq := func(t traffic) float64 { return float64(t.req[clsMeta] + t.req[clsVersion]) }
	metaBytes := func(t traffic) float64 {
		return float64(t.up[clsMeta] + t.down[clsMeta] + t.up[clsVersion] + t.down[clsVersion])
	}

	// Span-derived counts and times.
	var (
		holds                      []float64
		baseUploads, journalWrites int
		journalMS, checkpointMS    float64
		scanMS, readMS, writeMS    float64
		readBytes, writeBytes      int64
		blockDeletes, blockMoves   int
		upByCloud, downByCloud     = map[string]int64{}, map[string]int64{}
		slowBlocks                 int
		segments                   = map[string]bool{}
		smallClientNS, blkClientNS int64
		smallCalls                 int
		blkBytes                   int64
		availNS, availControlNS    int64
	)
	for _, p := range passes {
		lockSpans := make([]span, 0, 32)
		for _, s := range p.spans {
			switch s.cls {
			case clsLock:
				lockSpans = append(lockSpans, s)
			case clsMeta:
				if s.Op == "upload" && s.Path == deltasync.DefaultDir+"/base" {
					baseUploads++
				}
			case clsJournal:
				journalMS += spanMS(s)
				if s.Op == "write" {
					journalWrites++
				}
			case clsCheckpoint:
				checkpointMS += spanMS(s)
			case clsLocalFS:
				switch s.Op {
				case "stat", "listall":
					scanMS += spanMS(s)
				case "read":
					readMS += spanMS(s)
					readBytes += s.Bytes
				case "write":
					writeMS += spanMS(s)
					writeBytes += s.Bytes
				}
			case clsBlock:
				switch s.Op {
				case "delete":
					blockDeletes++
				case "upload":
					blockMoves++
					upByCloud[s.Cloud] += s.Bytes
					if segID, _, ok := meta.ParseBlockName(s.Path[strings.LastIndexByte(s.Path, '/')+1:]); ok {
						segments[segID] = true
					}
					if s.Cloud == slowestCloud {
						slowBlocks++
					}
				case "download":
					blockMoves++
					downByCloud[s.Cloud] += s.Bytes
				}
			}
			if int(s.cls) < numRemote {
				if s.cls == clsBlock && s.Op != "delete" {
					blkClientNS += s.End - s.Start
					blkBytes += s.Bytes
				} else {
					smallClientNS += s.End - s.Start
					smallCalls++
				}
			}
		}
		sort.Slice(lockSpans, func(i, j int) bool { return lockSpans[i].Start < lockSpans[j].Start })
		// Available time is the transfer of K blocks per segment plus the
		// first locked commit; the latter runs from the first lock request
		// to the first flag delete (the release follows the commit).
		if p.kind == passCommit && p.avail > 0 && len(lockSpans) > 0 {
			availNS += int64(p.avail)
			for _, s := range lockSpans {
				if s.Op == "delete" {
					availControlNS += s.Start - lockSpans[0].Start
					break
				}
			}
		}
		// A lock is held from the end of its last flag upload to the
		// start of the first flag delete that follows.
		var lastUpload int64 = -1
		for _, s := range lockSpans {
			switch s.Op {
			case "upload":
				lastUpload = max(lastUpload, s.End)
			case "delete":
				if lastUpload >= 0 {
					holds = append(holds, float64(s.Start-lastUpload)/1e6)
					lastUpload = -1
				}
			}
		}
	}
	fastShare := func(by map[string]int64) float64 {
		var fast, all int64
		for name, n := range by {
			all += n
			if fastClouds[name] {
				fast += n
			}
		}
		return 100 * ratio(float64(fast), float64(all))
	}

	// In-flight block requests while at least one is in flight.
	var blockNS, blockOwned int64
	for _, p := range append(append([]tracedPass(nil), commits...), applies...) {
		blockNS += p.blockNS
		blockOwned += p.shares[clsBlock]
	}

	// HTTP layer: client-observed time minus time inside the server's
	// backend (the injected delay on WAN; the store on LAN).
	serverNS := b.folded.serverNS
	var smallServerNS int64
	for c := range serverNS {
		if class(c) != clsBlock {
			smallServerNS += serverNS[c] // block deletes included: they carry no payload
		}
	}

	// Registry counters over the measured part.
	cntA := func(name string) float64 { return float64(b.folded.cntA[name]) }
	cntB := func(name string) float64 { return float64(b.folded.cntB[name]) }

	var userUp, userDown int64
	for _, p := range commits {
		userUp += p.userBytes
	}
	for _, p := range applies {
		userDown += p.userBytes
	}
	byOp := func(op string) (float64, int) {
		var vs []float64
		for _, p := range commits {
			if p.op == op {
				vs = append(vs, ms(p.wall))
			}
		}
		return median(vs), len(vs)
	}
	addMS, nAdd := byOp("add")
	editMS, nEdit := byOp("edit")
	delMS, nDel := byOp("delete")
	p90, nP90, supported := commitP90(b.passes)
	if !supported {
		p90 = 0
	}
	waves := make([]float64, len(latency))
	for i, p := range latency {
		waves[i] = float64(p.waves)
	}
	var passWall time.Duration
	for _, p := range b.passes {
		passWall += p.wall
	}
	checkpointing := float64(len(commits) + len(applies))

	layers := []metric{
		{"qlock.requests_per_commit", "count", float64(ct.req[clsLock]) / nC, len(commits)},
		{"qlock.wall_ms_per_commit", "ms", medianMS(latency, clsLock), len(latency)},
		{"qlock.wall_share_pct_up", "%", sharePct(commits, clsLock), len(commits)},
		{"qlock.rounds_per_commit", "count", cntA("qlock.rounds") / nC, len(commits)},
		{"qlock.hold_ms", "ms", median(holds), len(holds)},

		{"deltasync.version_requests_per_commit", "count", float64(ct.req[clsVersion]) / nC, len(commits)},
		{"deltasync.meta_requests_per_commit", "count", float64(ct.req[clsMeta]) / nC, len(commits)},
		{"deltasync.meta_bytes_per_commit", "B", metaBytes(ct) / nC, len(commits)},
		{"deltasync.wall_ms_per_commit", "ms", medianMS(latency, clsMeta, clsVersion), len(latency)},
		{"deltasync.wall_share_pct_up", "%", sharePct(commits, clsMeta, clsVersion), len(commits)},
		{"deltasync.requests_per_apply", "count", metaReq(at) / nA, len(applies)},
		{"deltasync.bytes_per_apply", "B", metaBytes(at) / nA, len(applies)},
		{"deltasync.requests_per_idle_poll", "count", metaReq(it) / nI, len(idles)},
		{"deltasync.base_uploads", "count", float64(baseUploads), len(passes)},
		{"deltasync.refresh_full", "count", cntA("deltasync.refresh.full") + cntB("deltasync.refresh.full"), len(passes)},
		{"deltasync.refresh_incremental", "count", cntA("deltasync.refresh.incremental") + cntB("deltasync.refresh.incremental"), len(passes)},

		{"transfer.block_requests_per_commit", "count", float64(ct.req[clsBlock]) / nC, len(commits)},
		{"transfer.block_requests_per_mb", "1/MB", ratio(float64(blockMoves), toMB(userUp+userDown)), blockMoves},
		{"transfer.wall_share_pct_up", "%", sharePct(commits, clsBlock), len(commits)},
		{"transfer.wall_share_pct_down", "%", sharePct(applies, clsBlock), len(applies)},
		{"transfer.conn_occupancy_pct", "%", 100 * ratio(float64(blockNS), float64(blockOwned)) / connBudget, len(commits) + len(applies)},
		{"transfer.overprovisioned_pct", "%", 100 * ratio(cntA("transfer.up.overprovisioned"), cntA("transfer.up.blocks")), int(cntA("transfer.up.blocks"))},
		{"transfer.down_bytes_per_user_byte", "ratio", ratio(float64(at.down[clsBlock]), float64(userDown)), len(applies)},
		{"transfer.retries", "count", cntA("transfer.up.retries") + cntB("transfer.down.retries"), len(passes)},
		{"transfer.hedges", "count", cntB("transfer.down.hedges"), len(applies)},
		{"transfer.delete_requests_per_round", "count", float64(blockDeletes) / nC, len(commits)},

		{"sched.fast_cloud_byte_share_pct_up", "%", fastShare(upByCloud), len(commits)},
		{"sched.fast_cloud_byte_share_pct_down", "%", fastShare(downByCloud), len(applies)},
		{"sched.slowest_cloud_blocks_per_segment", "count", ratio(float64(slowBlocks), float64(len(segments))), len(segments)},

		{"cloud.other_requests_per_commit", "count", float64(ct.req[clsOther]) / nC, len(commits)},
		{"cloudhttp.small_request_us", "us", ratio(float64(smallClientNS-smallServerNS)/1e3, float64(smallCalls)), smallCalls},
		{"cloudhttp.block_mb_s", "MB/s", ratio(toMB(blkBytes), float64(blkClientNS-serverNS[clsBlock])/1e9), blockMoves},

		{"localfs.scan_ms_per_pass", "ms", scanMS / nC, len(commits)},
		{"localfs.read_ms_per_mb", "ms/MB", ratio(readMS, toMB(readBytes)), len(commits)},
		{"localfs.write_ms_per_mb", "ms/MB", ratio(writeMS, toMB(writeBytes)), len(applies)},
		{"journal.writes_per_commit", "count", float64(journalWrites) / nC, len(commits)},
		{"journal.ms_per_commit", "ms", journalMS / nC, len(commits)},
		{"core.checkpoint_ms_per_pass", "ms", checkpointMS / checkpointing, int(checkpointing)},

		{"core.self_ms_per_commit", "ms", medianMS(latency, clsSelf), len(latency)},
		{"core.self_share_pct_up", "%", sharePct(commits, clsSelf), len(commits)},
		{"core.self_share_pct_down", "%", sharePct(applies, clsSelf), len(applies)},
		{"core.available_control_plane_pct", "%", 100 * ratio(float64(availControlNS), float64(availNS)), len(commits)},
		{"core.request_waves_per_commit", "count", median(waves), len(latency)},
		{"core.commit_p90_ms", "ms", p90, nP90},
		{"core.commit_add_ms", "ms", addMS, nAdd},
		{"core.commit_edit_ms", "ms", editMS, nEdit},
		{"core.commit_delete_ms", "ms", delMS, nDel},
	}
	replayed, err := replay(b.w.a.mem, b.w.a.client.Params())
	if err != nil {
		return nil, false, err
	}
	layers = append(layers, replayed...)
	layers = append(layers, processCPU(b.passes)...)
	layers = append(layers,
		metric{"process.peak_rss_mb", "MB", peakRSSMB(), 1},
		metric{"bench.trace_overhead_pct", "%", 100 * ratio(float64(len(spans))*float64(spanCost()), float64(passWall)), len(spans)},
		metric{"bench.ledger_sum_error_pct", "%", sumErr, len(passes)},
	)

	// Requests per class must add up to what the end-to-end metric counts.
	perClass := float64(ct.req[clsLock]+ct.req[clsVersion]+ct.req[clsMeta]+ct.req[clsBlock]+ct.req[clsOther]) / nC
	sumsOK := sumErr <= 1 && math.Abs(perClass-float64(ct.requests())/nC) < 1e-9
	if !sumsOK {
		fmt.Printf("  LEDGER DOES NOT SUM: wall error %.3f%%, per-class requests %.3f vs %.3f\n", sumErr, perClass, float64(ct.requests())/nC)
	}

	if outDir != "" {
		name, err := writeSpans(outDir, b.wl.name, b.passes, spans)
		if err != nil {
			return nil, false, err
		}
		fmt.Printf("  %d spans written to %s\n", len(spans), name)
	}
	return layers, sumsOK, nil
}

// spanCost measures what recording one span costs, for
// bench.trace_overhead_pct.
func spanCost() time.Duration {
	t := &tracer{origin: time.Now()}
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		path := transfer.DefaultBlockDir + "/calibration.1"
		t.record(t.begin("device-a", "upload", "alpha", path, classifyRemote(path)))
	}
	return time.Since(t0) / n
}
