package experiments

import (
	"context"
	"fmt"
	"time"

	"unidrive/internal/netsim"
	"unidrive/internal/stats"
	"unidrive/internal/workload"
)

// transferTrials uploads `trials` fresh random files of sizeBytes
// through the approach and downloads each again at the same location;
// it returns the available times and download times in seconds. Seeds
// are spread so that no two calls share a content seed: equal seeds
// give equal prefixes, which UniDrive would deduplicate.
func transferTrials(c *Cluster, a approach, loc netsim.LocationProfile, sizeBytes, trials int, seed int64) (up, down []float64) {
	ctx := context.Background()
	for i := 0; i < trials; i++ {
		files := []workload.File{{
			Name: fmt.Sprintf("s%d-t%d.bin", seed, i),
			Data: workload.Bytes(seed*1000+int64(i), sizeBytes),
		}}
		d, err := a.put(ctx, files)
		if err != nil {
			continue
		}
		up = append(up, d.Seconds())
		if d, err = a.get(ctx, loc, files, nil); err == nil {
			down = append(down, d.Seconds())
		}
	}
	return up, down
}

func fmtSummary(xs []float64) string {
	if len(xs) == 0 {
		return "failed"
	}
	s := stats.Summarize(xs)
	return fmt.Sprintf("%.1f (%.1f-%.1f)", s.Mean, s.Min, s.Max)
}

// lineupNames is UniDrive, the given native apps, then the rest.
func lineupNames(providers []string, rest ...string) []string {
	return append(append([]string{uniDriveName}, providers...), rest...)
}

// minPositive returns the smallest positive value of xs, or 0.
func minPositive(xs []float64) float64 {
	best := 0.0
	for _, x := range xs {
		if x > 0 && (best == 0 || x < best) {
			best = x
		}
	}
	return best
}

// fig8Micro reproduces Figure 8: time to upload/download a 32 MB file
// at each EC2 location — UniDrive vs the five native apps vs the
// multi-cloud benchmark. Every location gets its own world, so a
// location's UniDrive download is of its own files only.
func fig8Micro(opts Opts) []*Table {
	names := lineupNames(fiveProviders, benchmarkName)
	upT := &Table{
		Title:   fmt.Sprintf("Fig 8 (upload): avg (min-max) seconds to upload %d MB", opts.SizeMB),
		Headers: append([]string{"location"}, names...),
	}
	downT := &Table{
		Title:   fmt.Sprintf("Fig 8 (download): avg (min-max) seconds to download %d MB", opts.SizeMB),
		Headers: upT.Headers,
	}
	var upSpeedups, downSpeedups, upVsBench []float64
	for li, loc := range netsim.EC2Locations() {
		c := NewCluster(opts.Seed+int64(li), opts.Scale)
		apps, err := newLineup(names, c, loc)
		if err != nil {
			upT.AddNote("%s: setup failed: %v", loc.Name, err)
			continue
		}
		upRow, downRow := []string{loc.Name}, []string{loc.Name}
		upMeans, downMeans := make([]float64, len(apps)), make([]float64, len(apps))
		for i, a := range apps {
			up, down := transferTrials(c, a, loc, c.Size(opts.SizeMB<<20), opts.Trials, opts.Seed+int64(i+1))
			upRow, downRow = append(upRow, fmtSummary(up)), append(downRow, fmtSummary(down))
			upMeans[i], downMeans[i] = stats.Mean(up), stats.Mean(down)
		}
		upT.AddRow(upRow...)
		downT.AddRow(downRow...)

		// names is UniDrive, the providers, the benchmark.
		last := len(names) - 1
		bestUp, bestDown := minPositive(upMeans[1:last]), minPositive(downMeans[1:last])
		if upMeans[0] > 0 && bestUp > 0 {
			upSpeedups = append(upSpeedups, bestUp/upMeans[0])
		}
		if downMeans[0] > 0 && bestDown > 0 {
			downSpeedups = append(downSpeedups, bestDown/downMeans[0])
		}
		if upMeans[0] > 0 && upMeans[last] > 0 {
			upVsBench = append(upVsBench, upMeans[last]/upMeans[0])
		}
	}
	upT.AddNote("avg UniDrive upload speedup over the fastest CCS per location: %.2fx (paper: 2.64x)",
		stats.Mean(upSpeedups))
	upT.AddNote("avg UniDrive upload speedup over the multi-cloud benchmark: %.2fx (paper: ~1.5x)",
		stats.Mean(upVsBench))
	downT.AddNote("avg UniDrive download speedup over the fastest CCS per location: %.2fx (paper: 1.49x)",
		stats.Mean(downSpeedups))
	return []*Table{upT, downT}
}

// fig9FileSizes reproduces Figure 9: average transfer time versus
// file size (1 MB doubling up to opts.SizeMB) on the Virginia node for
// UniDrive, the three US native apps and the benchmark.
func fig9FileSizes(opts Opts) *Table {
	c := NewCluster(opts.Seed, opts.Scale)
	loc := netsim.EC2Location("virginia")
	names := lineupNames(usProviders, benchmarkName)
	t := &Table{
		Title:   "Fig 9: avg upload/download seconds by file size, Virginia",
		Headers: append([]string{"size"}, names...),
	}
	apps, err := newLineup(names, c, loc)
	if err != nil {
		t.AddNote("setup failed: %v", err)
		return t
	}
	sizes, uniWins := 0, 0
	for mb := 1; mb <= opts.SizeMB; mb *= 2 {
		sizes++
		row := []string{fmt.Sprintf("%dMB", mb)}
		upMeans := make([]float64, len(apps))
		for i, a := range apps {
			up, down := transferTrials(c, a, loc, c.Size(mb<<20), opts.Trials, opts.Seed+int64(mb))
			upMeans[i] = stats.Mean(up)
			row = append(row, fmt.Sprintf("%.1f/%.1f", upMeans[i], stats.Mean(down)))
		}
		if upMeans[0] > 0 && upMeans[0] < minPositive(upMeans[1:]) {
			uniWins++
		}
		t.AddRow(row...)
	}
	t.AddNote("UniDrive fastest uploader at %d of %d sizes (paper: all sizes)", uniWins, sizes)
	return t
}

// fig10HourlyVariation reproduces Figure 10: hourly 32 MB uploads
// over one simulated day (opts.Trials hours), UniDrive versus the fastest single CCS at
// Virginia — UniDrive should be both faster and far more stable. Both
// columns are available times, as in Fig 8.
func fig10HourlyVariation(opts Opts) *Table {
	c := NewCluster(opts.Seed, opts.Scale)
	names := []string{uniDriveName, netsim.OneDrive}
	t := &Table{
		Title:   fmt.Sprintf("Fig 10: hourly %d MB upload time over one day, Virginia [s]", opts.SizeMB),
		Headers: append([]string{"hour"}, names...),
	}
	apps, err := newLineup(names, c, netsim.EC2Location("virginia"))
	if err != nil {
		t.AddNote("setup failed: %v", err)
		return t
	}
	times := make([][]float64, len(apps))
	for hour := 0; hour < opts.Trials; hour++ {
		row := []string{fmt.Sprintf("%02d", hour)}
		data := workload.Bytes(opts.Seed+int64(hour), c.Size(opts.SizeMB<<20))
		for i, a := range apps {
			d, err := a.put(context.Background(), []workload.File{{Name: fmt.Sprintf("hour%02d.bin", hour), Data: data}})
			if err != nil {
				row = append(row, "fail")
				continue
			}
			times[i] = append(times[i], d.Seconds())
			row = append(row, fmt.Sprintf("%.1f", d.Seconds()))
		}
		t.AddRow(row...)
		if hour < opts.Trials-1 {
			c.Clock.Sleep(30 * time.Minute) // rest of the hour
		}
	}
	if uni, od := times[0], times[1]; len(uni) > 1 && len(od) > 1 {
		t.AddNote("max/min ratio: UniDrive %.1fx vs onedrive %.1fx (UniDrive should be far tighter)",
			stats.Max(uni)/stats.Min(uni), stats.Max(od)/stats.Min(od))
		t.AddNote("mean: UniDrive %.1fs vs onedrive %.1fs", stats.Mean(uni), stats.Mean(od))
	}
	return t
}

// fig11BatchSync reproduces Figure 11 and Table 2: end-to-end time to
// sync a batch of files from each source node to the other nodes, for
// UniDrive, the three US native apps, the benchmark and the intuitive
// multi-cloud. End-to-end time = available time at the source +
// download time at the destination. The second returned table is
// Table 2: the variance of each approach's average sync time across
// locations.
func fig11BatchSync(opts Opts) []*Table {
	locations := netsim.EC2Locations()
	locations = locations[:min(opts.Sources, len(locations))]
	names := lineupNames(usProviders, benchmarkName, intuitiveName)

	fig := &Table{
		Title: fmt.Sprintf("Fig 11: end-to-end sync of %d x %dKB files, avg (min-max) seconds over destinations",
			opts.Files, opts.FileKB),
		Headers: append([]string{"source"}, names...),
	}
	ctx := context.Background()
	means := make([][]float64, len(names)) // per approach, one mean per source (0: failed there)

	for _, src := range locations {
		// Fresh world per source so approaches see fresh stores.
		c := NewCluster(opts.Seed+int64(len(fig.Rows)), opts.Scale)
		files := workload.Batch(opts.Seed, opts.Files, c.Size(opts.FileKB<<10))
		apps, err := newLineup(names, c, src)
		if err != nil {
			fig.AddNote("%s: setup failed: %v", src.Name, err)
			continue
		}
		row := []string{src.Name}
		for i, a := range apps {
			var e2e []float64
			if upDur, err := a.put(ctx, files); err == nil {
				for _, dst := range locations {
					if dst.Name == src.Name {
						continue
					}
					if dl, err := a.get(ctx, dst, files, nil); err == nil {
						e2e = append(e2e, (upDur + dl).Seconds())
					}
				}
			}
			if len(e2e) == 0 {
				row = append(row, "failed")
				means[i] = append(means[i], 0)
				continue
			}
			s := stats.Summarize(e2e)
			means[i] = append(means[i], s.Mean)
			row = append(row, fmt.Sprintf("%.0f (%.0f-%.0f)", s.Mean, s.Min, s.Max))
		}
		fig.AddRow(row...)
	}

	// Shape note: UniDrive vs the best CCS per source.
	var speedups []float64
	for r, uni := range means[0] {
		best := 0.0
		for i := range usProviders {
			if m := means[1+i][r]; m > 0 && (best == 0 || m < best) {
				best = m
			}
		}
		if uni > 0 && best > 0 {
			speedups = append(speedups, best/uni)
		}
	}
	fig.AddNote("avg UniDrive e2e speedup over the fastest CCS per source: %.2fx (paper: 1.33x)",
		stats.Mean(speedups))

	tab2 := &Table{
		Title:   "Table 2: variance of average sync time across locations [s^2]",
		Headers: []string{"approach", "variance", "mean [s]"},
	}
	variance := make(map[string]float64, len(names))
	for i, n := range names {
		var completed []float64
		for _, m := range means[i] {
			if m > 0 {
				completed = append(completed, m)
			}
		}
		variance[n] = stats.Variance(completed)
		tab2.AddRow(n, fmt.Sprintf("%.1f", variance[n]), fmt.Sprintf("%.1f", stats.Mean(completed)))
	}
	if v, u := variance[netsim.GDrive], variance[uniDriveName]; u > 0 && v > u {
		tab2.AddNote("UniDrive variance %.1fx below gdrive's (paper: several-fold below every CCS)", v/u)
	}
	return []*Table{fig, tab2}
}

// fig12CumulativeSync reproduces Figure 12: the cumulative number of
// synced files over time while a batch syncs from Oregon to Virginia.
// UniDrive's curve should be the steepest and near-linear.
func fig12CumulativeSync(opts Opts) *Table {
	src, dst := netsim.EC2Location("oregon"), netsim.EC2Location("virginia")
	t := &Table{
		Title:   fmt.Sprintf("Fig 12: cumulative synced files over time (Oregon -> Virginia, %d files)", opts.Files),
		Headers: []string{"approach", "25% at [s]", "50% at [s]", "75% at [s]", "100% at [s]"},
	}
	ctx := context.Background()
	// The fastest CCS stands in for the single-cloud curve.
	for _, name := range []string{uniDriveName, netsim.GDrive, benchmarkName} {
		c := NewCluster(opts.Seed, opts.Scale)
		files := workload.Batch(opts.Seed, opts.Files, c.Size(opts.FileKB<<10))
		a, err := newApproach(name, c, src)
		if err == nil {
			_, err = a.put(ctx, files)
		}
		if err != nil {
			t.AddRow(name, "failed", "", "", "")
			continue
		}
		// reached[n] is when the n-th file had arrived; a get that fails
		// part-way leaves the rest of the curve unreached.
		reached := make([]string, len(files)+1)
		start, seen := c.Clock.Now(), 0
		_, _ = a.get(ctx, dst, files, func(done int) {
			for ; seen < done; seen++ {
				reached[seen+1] = fmt.Sprintf("%.0f", c.Clock.Now().Sub(start).Seconds())
			}
		})
		row := []string{name}
		for _, frac := range []float64{0.25, 0.5, 0.75, 1} {
			at := reached[int(frac*float64(opts.Files))]
			if at == "" {
				at = "-"
			}
			row = append(row, at)
		}
		t.AddRow(row...)
	}
	t.AddNote("UniDrive's quartile times should be smallest and near-evenly spaced (steady, steep curve)")
	return t
}

// table3Overhead reproduces Table 3: each approach's sync overhead —
// the wire traffic beyond its own data units (coded blocks for the
// erasure-coded systems, file chunks for the native apps), as a
// percentage of those data units — measured while syncing a batch of
// files from the Virginia node.
//
// Expected shape: UniDrive and the benchmark around a few percent
// (delta-sync and the tiny version file keep metadata cheap), the
// native apps small-to-moderate (Dropbox the largest), the intuitive
// multi-cloud far above everyone (it pays five native apps' protocol
// overhead for every file).
func table3Overhead(opts Opts) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Table 3: sync overhead while uploading %d x %dKB files", opts.Files, opts.FileKB),
		Headers: []string{"approach", "wire [KB]", "payload [KB]", "overhead"},
	}
	for _, name := range lineupNames(fiveProviders, intuitiveName, benchmarkName) {
		c := NewCluster(opts.Seed, opts.Scale)
		files := workload.Batch(opts.Seed, opts.Files, c.Size(opts.FileKB<<10))
		a, err := newApproach(name, c, netsim.EC2Location("virginia"))
		if err == nil {
			_, err = a.put(context.Background(), files)
		}
		if err != nil {
			t.AddRow(name, "failed: "+err.Error(), "", "")
			continue
		}
		wire, payload := a.traffic()
		if payload <= 0 {
			t.AddRow(name, fmt.Sprintf("%d", wire/1024), "0", "n/a")
			continue
		}
		t.AddRow(name, fmt.Sprintf("%d", wire/1024), fmt.Sprintf("%d", payload/1024),
			fmt.Sprintf("%.2f%%", float64(wire-payload)/float64(payload)*100))
	}
	t.AddNote("paper: Dropbox 7.07%%, OneDrive 2.04%%, GDrive 1.89%%, BaiduPCS 0.70%%, DBank 0.96%%, intuitive 14.93%%, benchmark 1.01%%, UniDrive 1.04%%")
	return t
}

// fig14Reliability reproduces Figure 14: a 32 MB file is uploaded
// with the reliability requirement fulfilled (Kr = 3, Ks = 2), then
// repeatedly downloaded on the Tokyo node while n in [0, 4] of the
// five clouds are disabled.
//
// Expected shape: full availability for n <= N-Kr = 2; with n = 3
// (only two clouds alive) recovery often still succeeds thanks to
// over-provisioned parity blocks; with n = 4 (one cloud alive)
// recovery MUST fail — that is the Ks = 2 security property. Download
// time grows as clouds disappear.
func fig14Reliability(opts Opts) *Table {
	c := NewCluster(opts.Seed, opts.Scale)
	loc := netsim.EC2Location("tokyo")
	ctx := context.Background()
	t := &Table{
		Title:   fmt.Sprintf("Fig 14: availability and download time of a %d MB file with n clouds down", opts.SizeMB),
		Headers: []string{"n down", "success", "avg download [s]"},
	}
	uni, err := newApproach(uniDriveName, c, loc)
	var reader *Device
	if err == nil {
		reader, err = c.NewDevice(loc, "reader")
	}
	if err != nil {
		t.AddNote("setup failed: %v", err)
		return t
	}
	size := c.Size(opts.SizeMB << 20)
	if _, err := uni.put(ctx, []workload.File{{Name: "precious.bin", Data: workload.Bytes(opts.Seed, size)}}); err != nil {
		t.AddNote("pre-upload failed: %v", err)
		return t
	}
	// The requirement is fulfilled in the metadata once the final
	// placements are recorded, by the source's next remote poll.
	if _, err := uni.(*uniDrive).src.Client.SyncRemote(ctx); err != nil {
		t.AddNote("recording the placements failed: %v", err)
		return t
	}

	names := c.CloudNames()
	allUp := func() {
		for _, n := range names {
			c.Net.SetOutage(n, false)
		}
	}
	for n := 0; n <= 4; n++ {
		successes := 0
		var times []float64
		for trial := 0; trial < opts.Trials; trial++ {
			allUp()
			// Rotate which n clouds are down across trials.
			for i := 0; i < n; i++ {
				c.Net.SetOutage(names[(trial+i)%len(names)], true)
			}
			d, err := c.Time(func() error {
				got, gerr := reader.Client.Get(ctx, "precious.bin")
				if gerr == nil && len(got) != size {
					gerr = fmt.Errorf("short read: %d", len(got))
				}
				return gerr
			})
			if err == nil {
				successes++
				times = append(times, d.Seconds())
			}
			c.Clock.Sleep(30 * time.Second) // next epoch between trials
		}
		allUp()
		avg := "-"
		if len(times) > 0 {
			avg = fmt.Sprintf("%.1f", stats.Mean(times))
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%d/%d", successes, opts.Trials), avg)
		switch n {
		case 2:
			if successes < opts.Trials {
				t.AddNote("n=2 had failures — reliability goal Kr=3 violated!")
			}
		case 3:
			if successes > 0 {
				t.AddNote("n=3 partially recoverable: over-provisioned parity blocks exceed the fair share (paper observed the same)")
			}
		case 4:
			if successes > 0 {
				t.AddNote("n=4 recovered — SECURITY VIOLATION (a single cloud must never suffice with Ks=2)")
			} else {
				t.AddNote("n=4 unrecoverable, as the Ks=2 security requirement demands")
			}
		}
	}
	return t
}
