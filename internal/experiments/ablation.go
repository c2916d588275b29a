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

// AblationOpts sizes the design-choice ablations.
type AblationOpts struct {
	Seed   int64
	Scale  float64
	Trials int
	SizeMB int
}

func (o *AblationOpts) fill() {
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.SizeMB <= 0 {
		o.SizeMB = 16
	}
}

// ablationRig is a bare data-plane setup (no metadata/locks): five
// shaped clouds, an engine, and a coder — so each ablation isolates
// exactly one scheduling mechanism.
type ablationRig struct {
	c      *Cluster
	clouds []cloud.Interface
	names  []string
	coder  *erasure.Coder
}

func newAblationRig(opts AblationOpts) (*ablationRig, error) {
	c := NewCluster(opts.Seed, opts.Scale)
	host := c.Host(netsim.EC2Location("virginia"))
	r := &ablationRig{c: c, clouds: c.Clouds(host), names: c.CloudNames()}
	coder, err := erasure.NewCoder(paperParams.K, paperParams.CodeN())
	if err != nil {
		return nil, err
	}
	r.coder = coder
	return r, nil
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

// uploadOnce codes one segment and uploads it to reliability,
// honouring maxPerCloud via the plan; it returns the time to
// availability (the batch's availability instant, which ends
// over-provisioning) and the final placement.
func (r *ablationRig) uploadOnce(ctx context.Context, eng *transfer.Engine, segID string,
	data []byte) (time.Duration, map[int]string, error) {

	plan, err := sched.NewUploadPlan(paperParams, r.names)
	if err != nil {
		return 0, nil, err
	}
	src := func(blockID int) ([]byte, error) {
		return r.coder.EncodeBlocks(data, []int{blockID})[0], nil
	}
	start := r.c.Clock.Now()
	availAt, err := eng.UploadBatch(ctx, []transfer.UploadItem{{Plan: plan, SegID: segID, Src: src}}, plan.Available)
	if err != nil {
		return 0, nil, err
	}
	return availAt.Sub(start), plan.Placement(), nil
}

// AblationOverProvisioning compares time-to-availability and
// time-to-reliability with over-provisioning enabled (UniDrive's
// plan) versus a fair-share-only plan (the multi-cloud benchmark's
// static policy), on the same network draw.
func AblationOverProvisioning(opts AblationOpts) *Table {
	opts.fill()
	t := &Table{
		Title:   "Ablation: over-provisioning on vs off (time to availability, s)",
		Headers: []string{"trial", "with over-provisioning", "fair-share only"},
	}
	ctx := context.Background()
	var with, without []float64
	for trial := 0; trial < opts.Trials; trial++ {
		rig, err := newAblationRig(opts)
		if err != nil {
			t.AddNote("setup: %v", err)
			return t
		}
		data := workload.Bytes(opts.Seed+int64(trial), rig.c.Size(opts.SizeMB<<20))

		eng := rig.engine(ctx, true)
		dur, _, err := rig.uploadOnce(ctx, eng, fmt.Sprintf("op-%d", trial), data)
		if err != nil {
			continue
		}
		with = append(with, dur.Seconds())

		// Fair-share-only: Ks chosen so MaxPerCloud == FairShare,
		// which forbids any extras — the same engine then degenerates
		// to the benchmark's static assignment.
		fairOnly := paperParams
		fairOnly.Ks = fairOnly.Kr // cap = fair share for k=3,Kr=3,N=5
		plan, err := sched.NewUploadPlan(fairOnly, rig.names)
		if err != nil {
			continue
		}
		src := func(blockID int) ([]byte, error) {
			return rig.coder.EncodeBlocks(data, []int{blockID})[0], nil
		}
		start := rig.c.Clock.Now()
		availAt, err := eng.UploadBatch(ctx,
			[]transfer.UploadItem{{Plan: plan, SegID: fmt.Sprintf("fs-%d", trial), Src: src}}, plan.Available)
		if err != nil {
			continue
		}
		without = append(without, availAt.Sub(start).Seconds())
		t.AddRow(fmt.Sprintf("%d", trial+1),
			fmt.Sprintf("%.1f", with[len(with)-1]),
			fmt.Sprintf("%.1f", without[len(without)-1]))
	}
	if len(with) > 0 && len(with) == len(without) {
		ratios := make([]float64, len(with))
		for i := range with {
			ratios[i] = without[i] / with[i]
		}
		t.AddNote("mean availability time: %.1fs with vs %.1fs without; median per-trial speedup %.2fx",
			stats.Mean(with), stats.Mean(without), stats.Median(ratios))
	}
	return t
}

// AblationDownloadScheduling compares the dynamic download dispatch
// (probed clouds, sources admitted by estimated finish time) against a
// naive dispatch that treats all clouds equally (no estimates, so
// every holder is admitted in name order), downloading the same
// over-provisioned placement.
func AblationDownloadScheduling(opts AblationOpts) *Table {
	opts.fill()
	t := &Table{
		Title:   "Ablation: dynamic download scheduling vs naive (download time, s)",
		Headers: []string{"trial", "dynamic (probed, earliest finish)", "naive (blind)"},
	}
	ctx := context.Background()
	var dyn, naive []float64
	for trial := 0; trial < opts.Trials; trial++ {
		rig, err := newAblationRig(opts)
		if err != nil {
			t.AddNote("setup: %v", err)
			return t
		}
		data := workload.Bytes(opts.Seed+int64(trial)+500, rig.c.Size(opts.SizeMB<<20))
		segID := fmt.Sprintf("dl-%d", trial)
		upEng := rig.engine(ctx, true)
		// Upload to full reliability (with over-provisioning) and keep
		// the placement for the download plans.
		plan, err := sched.NewUploadPlan(paperParams, rig.names)
		if err != nil {
			continue
		}
		src := func(blockID int) ([]byte, error) {
			return rig.coder.EncodeBlocks(data, []int{blockID})[0], nil
		}
		if _, err := upEng.UploadBatch(ctx,
			[]transfer.UploadItem{{Plan: plan, SegID: segID + "b", Src: src}}, nil); err != nil {
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
			start := rig.c.Clock.Now()
			_, err = eng.DownloadBatch(ctx, []transfer.DownloadItem{{
				Plan: dplan, SegID: segID + "b", Size: int64(rig.coder.ShardSize(len(data))),
			}})
			if err != nil || !dplan.Done() {
				return 0, false
			}
			return rig.c.Clock.Now().Sub(start).Seconds(), true
		}
		if d, ok := measure(rig.engine(ctx, true)); ok {
			dyn = append(dyn, d)
		}
		if d, ok := measure(rig.engine(ctx, false)); ok { // blind: no estimates, every cloud admitted
			naive = append(naive, d)
		}
		if len(dyn) > 0 && len(naive) > 0 && len(dyn) == len(naive) {
			t.AddRow(fmt.Sprintf("%d", trial+1),
				fmt.Sprintf("%.1f", dyn[len(dyn)-1]),
				fmt.Sprintf("%.1f", naive[len(naive)-1]))
		}
	}
	if len(dyn) > 0 && len(dyn) == len(naive) {
		ratios := make([]float64, len(dyn))
		for i := range dyn {
			ratios[i] = naive[i] / dyn[i]
		}
		t.AddNote("mean download: %.1fs dynamic vs %.1fs naive; median per-trial speedup %.2fx",
			stats.Mean(dyn), stats.Mean(naive), stats.Median(ratios))
	}
	return t
}

// AblationChunkerTheta sweeps the segmentation target θ and reports
// block size and availability time — the tradeoff behind the paper's
// θ = 4 MB, k = 3 choice ("final block size ... 1-2 MB ... strikes a
// good balance between throughput and failure rate").
func AblationChunkerTheta(opts AblationOpts) *Table {
	opts.fill()
	t := &Table{
		Title:   "Ablation: segment target θ vs availability time (16 MB file)",
		Headers: []string{"θ (nominal)", "segments", "block size", "availability [s]"},
	}
	ctx := context.Background()
	for _, thetaMB := range []int{1, 2, 4, 8} {
		rig, err := newAblationRig(opts)
		if err != nil {
			t.AddNote("setup: %v", err)
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
			dur, _, err := rig.uploadOnce(ctx, eng, fmt.Sprintf("th%d-%d", thetaMB, s), data[lo:hi])
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
