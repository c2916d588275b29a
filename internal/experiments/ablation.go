package experiments

import (
	"context"
	"fmt"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/erasure"
	"unidrive/internal/netsim"
	"unidrive/internal/sched"
	"unidrive/internal/stats"
	"unidrive/internal/transfer"
	"unidrive/internal/workload"
)

// ablationRig is a bare data-plane setup (no metadata/locks): the
// five recorded clouds of one Virginia site, an engine, and a coder —
// so each ablation isolates exactly one scheduling mechanism.
type ablationRig struct {
	c      *Cluster
	clouds []cloud.Interface
	coder  *erasure.Coder
}

func newAblationRig(opts Opts) (*ablationRig, error) {
	c := NewCluster(opts.Seed, opts.Scale)
	coder, err := erasure.NewCoder(paperParams.K, paperParams.CodeN())
	return &ablationRig{c: c, clouds: c.Site(netsim.EC2Location("virginia")).Clouds(), coder: coder}, err
}

// engine builds a data-plane engine over the rig's clouds. With probe
// set the clouds are wrapped as core wraps them and one version-stamp
// sized file goes up and comes back per cloud: what in-channel probing
// has learnt from control traffic when a real pass reaches its first
// block. Without it the scheduler is blind: no cloud has an estimate.
func (r *ablationRig) engine(ctx context.Context, probe bool) *transfer.Engine {
	prober := sched.NewProber(0)
	clouds := r.clouds
	if probe {
		clouds = make([]cloud.Interface, len(r.clouds))
		stamp := make([]byte, 33)
		for i, cl := range r.clouds {
			clouds[i] = transfer.NewProbing(cl, prober, r.c.Clock)
			// Best effort: a cloud that fails its stamp is demoted by the
			// failure itself.
			if err := clouds[i].Upload(ctx, ".unidrive/ablation-stamp", stamp); err == nil {
				_, _ = clouds[i].Download(ctx, ".unidrive/ablation-stamp")
			}
		}
	}
	return transfer.New(clouds, prober, transfer.Config{Clock: r.c.Clock})
}

// upload codes one segment and uploads it to reliability under the
// given placement parameters; it returns the time to availability
// and the plan. Over-provisioning ends at the availability instant,
// unless toReliability keeps the extras flowing.
func (r *ablationRig) upload(ctx context.Context, eng *transfer.Engine, params sched.Params, segID string,
	data []byte, toReliability bool) (time.Duration, *sched.UploadPlan, error) {

	plan, err := sched.NewUploadPlan(params, fiveProviders)
	if err != nil {
		return 0, nil, err
	}
	src := func(blockID int) ([]byte, error) {
		return r.coder.EncodeBlocks(data, []int{blockID})[0], nil
	}
	available := plan.Available
	if toReliability {
		available = nil
	}
	start := r.c.Clock.Now()
	availAt, err := eng.UploadBatch(ctx, []transfer.UploadItem{{Plan: plan, SegID: segID, Src: src}}, available)
	return availAt.Sub(start), plan, err
}

// speedupNote summarises paired per-trial times of a mechanism on and
// off.
func speedupNote(t *Table, what, onLabel, offLabel string, on, off []float64) {
	if len(on) == 0 || len(on) != len(off) {
		return
	}
	ratios := make([]float64, len(on))
	for i := range on {
		ratios[i] = off[i] / on[i]
	}
	t.AddNote("mean %s: %.1fs %s vs %.1fs %s; median per-trial speedup %.2fx",
		what, stats.Mean(on), onLabel, stats.Mean(off), offLabel, stats.Median(ratios))
}

// ablationOverProvisioning compares time-to-availability with
// over-provisioning enabled (UniDrive's plan) versus a fair-share-only
// plan (the multi-cloud benchmark's static policy), on the same
// network draw.
func ablationOverProvisioning(opts Opts) *Table {
	t := &Table{
		Title:   "Ablation: over-provisioning on vs off (time to availability, s)",
		Headers: []string{"trial", "with over-provisioning", "fair-share only"},
	}
	ctx := context.Background()
	// Fair-share-only: Ks chosen so MaxPerCloud == FairShare, which
	// forbids any extras — the same engine then degenerates to the
	// benchmark's static assignment.
	fairOnly := paperParams
	fairOnly.Ks = fairOnly.Kr // cap = fair share for k=3,Kr=3,N=5
	var with, without []float64
	for trial := 0; trial < opts.Trials; trial++ {
		rig, err := newAblationRig(opts)
		if err != nil {
			t.AddNote("setup failed: %v", err)
			return t
		}
		data := workload.Bytes(opts.Seed+int64(trial), rig.c.Size(opts.SizeMB<<20))
		eng := rig.engine(ctx, true)
		on, _, err := rig.upload(ctx, eng, paperParams, fmt.Sprintf("op-%d", trial), data, false)
		if err != nil {
			continue
		}
		off, _, err := rig.upload(ctx, eng, fairOnly, fmt.Sprintf("fs-%d", trial), data, false)
		if err != nil {
			continue
		}
		with, without = append(with, on.Seconds()), append(without, off.Seconds())
		t.AddRow(fmt.Sprintf("%d", trial+1), fmt.Sprintf("%.1f", on.Seconds()), fmt.Sprintf("%.1f", off.Seconds()))
	}
	speedupNote(t, "availability time", "with", "without", with, without)
	return t
}

// ablationDownloadScheduling compares the dynamic download dispatch
// (probed clouds, sources admitted by estimated finish time) against a
// naive dispatch that treats all clouds equally (no estimates, so
// every holder is admitted in name order), downloading the same
// over-provisioned placement.
func ablationDownloadScheduling(opts Opts) *Table {
	t := &Table{
		Title:   "Ablation: dynamic download scheduling vs naive (download time, s)",
		Headers: []string{"trial", "dynamic (probed, earliest finish)", "naive (blind)"},
	}
	ctx := context.Background()
	var dyn, naive []float64
	for trial := 0; trial < opts.Trials; trial++ {
		rig, err := newAblationRig(opts)
		if err != nil {
			t.AddNote("setup failed: %v", err)
			return t
		}
		data := workload.Bytes(opts.Seed+int64(trial)+500, rig.c.Size(opts.SizeMB<<20))
		segID := fmt.Sprintf("dl-%db", trial)
		// Upload to full reliability (with over-provisioning) and keep
		// the placement for the download plans.
		_, plan, err := rig.upload(ctx, rig.engine(ctx, true), paperParams, segID, data, true)
		if err != nil {
			continue
		}
		locations := make(map[int][]string)
		for b, c := range plan.Placement() {
			locations[b] = []string{c}
		}
		measure := func(eng *transfer.Engine) (float64, bool) {
			dplan, err := sched.NewDownloadPlan(paperParams.K, locations)
			if err != nil {
				return 0, false
			}
			d, err := rig.c.Time(func() error {
				_, err := eng.DownloadBatch(ctx, []transfer.DownloadItem{{
					Plan: dplan, SegID: segID, Size: int64(rig.coder.ShardSize(len(data))),
				}})
				return err
			})
			return d.Seconds(), err == nil && dplan.Done()
		}
		d, okD := measure(rig.engine(ctx, true))
		n, okN := measure(rig.engine(ctx, false)) // blind: no estimates, every cloud admitted
		if okD && okN {
			dyn, naive = append(dyn, d), append(naive, n)
			t.AddRow(fmt.Sprintf("%d", trial+1), fmt.Sprintf("%.1f", d), fmt.Sprintf("%.1f", n))
		}
	}
	speedupNote(t, "download", "dynamic", "naive", dyn, naive)
	return t
}

// ablationChunkerTheta sweeps the segmentation target θ and reports
// block size and availability time — the tradeoff behind the paper's
// θ = 4 MB, k = 3 choice ("final block size ... 1-2 MB ... strikes a
// good balance between throughput and failure rate").
func ablationChunkerTheta(opts Opts) *Table {
	t := &Table{
		Title:   "Ablation: segment target θ vs availability time (16 MB file)",
		Headers: []string{"θ (nominal)", "segments", "block size", "availability [s]"},
	}
	ctx := context.Background()
	for _, thetaMB := range []int{1, 2, 4, 8} {
		rig, err := newAblationRig(opts)
		if err != nil {
			t.AddNote("setup failed: %v", err)
			return t
		}
		data := workload.Bytes(opts.Seed+int64(thetaMB), rig.c.Size(16<<20))
		theta := rig.c.Size(thetaMB << 20)
		segments := (len(data) + theta - 1) / theta
		eng := rig.engine(ctx, true)
		// Segment by segment: the file's availability time is the sum of
		// its segments' (each upload's reliability tail is not part of it).
		var avail time.Duration
		okAll := true
		for s := 0; s < segments; s++ {
			lo := s * theta
			hi := lo + theta
			if hi > len(data) {
				hi = len(data)
			}
			dur, _, err := rig.upload(ctx, eng, paperParams, fmt.Sprintf("th%d-%d", thetaMB, s), data[lo:hi], false)
			if err != nil {
				okAll = false
				break
			}
			avail += dur
		}
		if !okAll {
			t.AddRow(fmt.Sprintf("%dMB", thetaMB), "-", "-", "failed")
			continue
		}
		blockKB := thetaMB << 10 / paperParams.K
		t.AddRow(fmt.Sprintf("%dMB", thetaMB),
			fmt.Sprintf("%d", segments),
			fmt.Sprintf("~%dKB", blockKB),
			fmt.Sprintf("%.1f", avail.Seconds()))
	}
	t.AddNote("small θ multiplies per-block API latency; large θ reduces parallelism and raises per-request failure odds")
	return t
}
