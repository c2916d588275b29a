package experiments

import (
	"context"
	"fmt"
	"time"

	"unidrive/internal/netsim"
	"unidrive/internal/stats"
)

// measurementGap is the simulated pause between samples of the §3.2
// study, so they land in different fluctuation epochs.
const measurementGap = 45 * time.Second

// newMeasurementCluster builds the world of the §3.2 study: Figs 1–4
// and Table 1 issue one raw transfer at a time from one goroutine, so
// they run on a stepping clock — no wall time passes, Opts.Scale does
// not apply, and a seed gives the same tables every run.
func newMeasurementCluster(seed int64) *Cluster {
	return newCluster(seed, &stepClock{now: time.Unix(0, 0)})
}

// rawTransfer issues one Web-API transfer of size bytes and reports
// its simulated duration; failed requests report ok=false.
func rawTransfer(c *Cluster, h *netsim.Host, cloudName string, dir netsim.Direction, size int64) (time.Duration, bool) {
	start := c.Clock.Now()
	err := h.Do(context.Background(), cloudName, dir, size)
	return c.Clock.Now().Sub(start), err == nil
}

// fig1SpatialVariation reproduces Figure 1: average/min/max time to
// upload and download an 8 MB file to each of the five CCSs from the
// 13 PlanetLab vantage points.
func fig1SpatialVariation(opts Opts) []*Table {
	var tables []*Table
	for _, dir := range []netsim.Direction{netsim.Upload, netsim.Download} {
		c := newMeasurementCluster(opts.Seed)
		size := int64(c.Size(8 << 20))
		t := &Table{
			Title:   fmt.Sprintf("Fig 1 (%s): 8 MB %s time per CCS across PlanetLab nodes [s, avg (min-max)]", dir, dir),
			Headers: append([]string{"location"}, c.CloudNames()...),
		}
		byCloud := make(map[string][]float64)
		for _, loc := range netsim.PlanetLabLocations() {
			h := c.Host(loc)
			row := []string{loc.Name}
			for _, name := range c.CloudNames() {
				var samples []float64
				for i := 0; i < opts.Trials; i++ {
					d, ok := rawTransfer(c, h, name, dir, size)
					if ok {
						samples = append(samples, d.Seconds())
					}
					c.Clock.Sleep(measurementGap)
				}
				if len(samples) == 0 {
					row = append(row, "unreachable")
					continue
				}
				s := stats.Summarize(samples)
				byCloud[name] = append(byCloud[name], s.Mean)
				row = append(row, fmt.Sprintf("%.1f (%.1f-%.1f)", s.Mean, s.Min, s.Max))
			}
			t.AddRow(row...)
		}
		// Shape note: spatial disparity of each cloud across
		// locations (paper: Dropbox 2.76x between LA and Princeton).
		for _, name := range c.CloudNames() {
			means := byCloud[name]
			if len(means) > 1 && stats.Min(means) > 0 {
				t.AddNote("%s spatial disparity (max/min of per-location averages): %.1fx",
					name, stats.Max(means)/stats.Min(means))
			}
		}
		tables = append(tables, t)
	}
	return tables
}

// fig2FileSizeThroughput reproduces Figure 2: throughput versus file
// size on the Princeton node — throughput rises with size and
// flattens past ~4 MB (per-request latency amortization).
func fig2FileSizeThroughput(opts Opts) *Table {
	c := newMeasurementCluster(opts.Seed)
	h := c.Host(netsim.PlanetLabLocation("princeton"))
	sizes := []int64{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
	t := &Table{
		Title:   "Fig 2: throughput vs file size, Princeton [Mbit/s up / down]",
		Headers: append([]string{"size"}, c.CloudNames()...),
	}
	firstUp := make(map[string]float64)
	lastUp := make(map[string]float64)
	for _, size := range sizes {
		scaled := int64(c.Size(int(size)))
		row := []string{fmt.Sprintf("%.1fMB", float64(size)/(1<<20))}
		for _, name := range c.CloudNames() {
			var upT, downT []float64
			for i := 0; i < opts.Trials; i++ {
				if d, ok := rawTransfer(c, h, name, netsim.Upload, scaled); ok {
					upT = append(upT, Mbps(size, d))
				}
				if d, ok := rawTransfer(c, h, name, netsim.Download, scaled); ok {
					downT = append(downT, Mbps(size, d))
				}
				c.Clock.Sleep(measurementGap)
			}
			up, down := stats.Mean(upT), stats.Mean(downT)
			if _, ok := firstUp[name]; !ok {
				firstUp[name] = up
			}
			lastUp[name] = up
			row = append(row, fmt.Sprintf("%.1f/%.1f", up, down))
		}
		t.AddRow(row...)
	}
	for _, name := range c.CloudNames() {
		if firstUp[name] > 0 {
			t.AddNote("%s upload throughput grows %.1fx from 0.5MB to 8MB", name, lastUp[name]/firstUp[name])
		}
	}
	return t
}

// fig3TemporalVariation reproduces Figure 3: daily upload time for an
// 8 MB file over a month on Princeton, for the three US clouds.
// Expect high, pattern-free fluctuation (paper: same-day max/min up
// to 17×) and near-independent clouds.
func fig3TemporalVariation(opts Opts) *Table {
	const days = 30
	c := newMeasurementCluster(opts.Seed)
	size := int64(c.Size(8 << 20))
	h := c.Host(netsim.PlanetLabLocation("princeton"))
	clouds := usProviders
	t := &Table{
		Title:   "Fig 3: daily 8 MB upload time over one month, Princeton [s]",
		Headers: append([]string{"day"}, clouds...),
	}
	perCloud := make(map[string][]float64)
	for day := 0; day < days; day++ {
		row := []string{fmt.Sprintf("%d", day+1)}
		for _, name := range clouds {
			// Several samples within the day; record the day's mean,
			// track the day's spread.
			var day1 []float64
			for s := 0; s < 3; s++ {
				if d, ok := rawTransfer(c, h, name, netsim.Upload, size); ok {
					day1 = append(day1, d.Seconds())
				}
				// Samples land in distinct fluctuation epochs; the
				// modeled process has no diurnal structure, so there
				// is no need to idle through simulated nights.
				c.Clock.Sleep(2 * time.Minute)
			}
			m := stats.Mean(day1)
			perCloud[name] = append(perCloud[name], m)
			row = append(row, fmt.Sprintf("%.1f", m))
		}
		t.AddRow(row...)
		c.Clock.Sleep(5 * time.Minute)
	}
	for _, name := range clouds {
		xs := perCloud[name]
		if stats.Min(xs) > 0 {
			t.AddNote("%s month-long max/min daily ratio: %.1fx", name, stats.Max(xs)/stats.Min(xs))
		}
	}
	// Cross-cloud independence: correlation of daily series.
	for i := 0; i < len(clouds); i++ {
		for j := i + 1; j < len(clouds); j++ {
			if r, err := stats.Pearson(perCloud[clouds[i]], perCloud[clouds[j]]); err == nil {
				t.AddNote("daily-time correlation %s vs %s: %.2f", clouds[i], clouds[j], r)
			}
		}
	}
	return t
}

// fig4FailureBySize reproduces Figure 4: among all failed requests,
// the share contributed by each file size — larger files fail more.
func fig4FailureBySize(opts Opts) *Table {
	c := newMeasurementCluster(opts.Seed)
	h := c.Host(netsim.PlanetLabLocation("princeton"))
	sizes := []int64{0, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
	labels := []string{"0", "0.5MB", "1MB", "2MB", "4MB", "8MB"}
	trials := opts.Trials * 25 // failures are rare; need volume
	failures := make([]int, len(sizes))
	total := 0
	for i, size := range sizes {
		scaled := int64(c.Size(int(size)))
		for n := 0; n < trials; n++ {
			if _, ok := rawTransfer(c, h, c.CloudNames()[n%5], netsim.Upload, scaled); !ok {
				failures[i]++
				total++
			}
			if n%10 == 0 {
				c.Clock.Sleep(measurementGap)
			}
		}
	}
	t := &Table{
		Title:   "Fig 4: share of failed requests by file size",
		Headers: []string{"size", "failures", "share"},
	}
	for i := range sizes {
		share := 0.0
		if total > 0 {
			share = float64(failures[i]) / float64(total) * 100
		}
		t.AddRow(labels[i], fmt.Sprintf("%d", failures[i]), fmt.Sprintf("%.0f%%", share))
	}
	if total > 0 && failures[len(sizes)-1] > failures[0] {
		t.AddNote("larger files account for more failures (paper: no increase below 2MB, growth after)")
	}
	return t
}

// table1FailureCorrelation reproduces Table 1: the correlation of
// failed Web API requests between the three US CCSs, measured over
// time windows. The paper finds negative correlations — clouds
// rarely fail together.
func table1FailureCorrelation(opts Opts) *Table {
	c := newMeasurementCluster(opts.Seed)
	h := c.Host(netsim.PlanetLabLocation("princeton"))
	clouds := usProviders
	const windows = 60
	const perWindow = 12
	size := int64(c.Size(2 << 20))

	// failRates[cloud][window] = failure count in that window.
	failRates := make(map[string][]float64, len(clouds))
	for w := 0; w < windows; w++ {
		for _, name := range clouds {
			fails := 0
			for i := 0; i < perWindow; i++ {
				if _, ok := rawTransfer(c, h, name, netsim.Upload, size); !ok {
					fails++
				}
			}
			failRates[name] = append(failRates[name], float64(fails))
		}
		c.Clock.Sleep(90 * time.Second) // next degradation epoch
	}
	t := &Table{
		Title:   "Table 1: correlation of failed requests between US CCSs (upload)",
		Headers: append([]string{""}, clouds...),
	}
	negative := 0
	for _, a := range clouds {
		row := []string{a}
		for _, b := range clouds {
			if a == b {
				row = append(row, "-")
				continue
			}
			r, err := stats.Pearson(failRates[a], failRates[b])
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			if r < 0 {
				negative++
			}
			row = append(row, fmt.Sprintf("%.3f", r))
		}
		t.AddRow(row...)
	}
	t.AddNote("%d of 6 pairwise correlations negative (paper: all negative)", negative)
	return t
}
