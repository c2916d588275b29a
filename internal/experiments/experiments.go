// Package experiments reproduces every table and figure of the
// UniDrive paper's measurement study (§3.2) and evaluation (§7) on
// the simulation substrate. Each experiment is a row of the table All:
// a function from Opts to printable Tables plus its named sizes;
// cmd/unibench runs the rows from the command line and bench_test.go
// wraps them as Go benchmarks. The four systems the evaluation
// compares are the four implementations of approach (approach.go);
// every §7 figure is a parameterisation of it.
//
// Absolute numbers differ from the paper (the substrate is a
// simulator, not PlanetLab/EC2), but the *shapes* — who wins, by
// roughly what factor, where the crossovers are — are the
// reproduction targets; EXPERIMENTS.md records paper-vs-measured for
// each one.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/core"
	"unidrive/internal/localfs"
	"unidrive/internal/netsim"
	"unidrive/internal/vclock"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes carries shape observations (speedups, ratios) computed
	// by the experiment for EXPERIMENTS.md.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// DataScale shrinks the bytes that actually move through the
// simulator. Both workload sizes and link rates are divided by it, so
// simulated durations still correspond to the NOMINAL sizes. The world
// clock charges no virtual time for client CPU, so DataScale only
// bounds the wall time an experiment takes: the real hashing, coding
// and copying shrink with it.
const DataScale = 8

// Opts sizes an experiment. Each row of All reads the fields its
// Sizes set and ignores the rest.
type Opts struct {
	// Seed drives the simulated network and the workload content.
	Seed int64
	// Trials is the number of samples per measured point (Fig 10:
	// the number of hourly samples).
	Trials int
	// SizeMB is the nominal size of a single transferred file (Fig 9:
	// where the size sweep ends).
	SizeMB int
	// Files and FileKB define a batch (per user, in the trial).
	Files  int
	FileKB int
	// Sources limits Fig 11's upload locations.
	Sources int
	// Users is the trial's population size.
	Users int
}

// fill completes o from def: every field o leaves zero takes def's
// value.
func (o Opts) fill(def Opts) Opts {
	if o.Trials == 0 {
		o.Trials = def.Trials
	}
	if o.SizeMB == 0 {
		o.SizeMB = def.SizeMB
	}
	if o.Files == 0 {
		o.Files = def.Files
	}
	if o.FileKB == 0 {
		o.FileKB = def.FileKB
	}
	if o.Sources == 0 {
		o.Sources = def.Sources
	}
	if o.Users == 0 {
		o.Users = def.Users
	}
	return o
}

// Sizes are an experiment's named workload sizes: the paper's, the
// one `unibench -quick` runs, and the miniature one the shape tests
// and `go test -bench` share. Quick and Mini list only what differs
// from Paper.
type Sizes struct{ Paper, Quick, Mini Opts }

// Experiment is one row of the experiment table: a table or figure of
// the paper (or a group printed together), the names `unibench -run`
// selects it by, and its sizes.
type Experiment struct {
	Name    string
	Aliases []string
	Sizes   Sizes
	// Run expects complete Opts; Tables supplies them.
	Run func(Opts) []*Table
}

// Tables runs the experiment at one of its Sizes with the given seed.
func (e Experiment) Tables(size Opts, seed int64) []*Table {
	o := size.fill(e.Sizes.Paper)
	o.Seed = seed
	return e.Run(o)
}

// one adapts a single-table experiment to Experiment.Run.
func one(f func(Opts) *Table) func(Opts) []*Table {
	return func(o Opts) []*Table { return []*Table{f(o)} }
}

// All is the experiment table, in the paper's order. cmd/unibench,
// bench_test.go and the smoke test loop over it (followed by
// trial.Experiments, which lives in its own package).
var All = []Experiment{
	{Name: "fig1", Run: fig1SpatialVariation,
		Sizes: Sizes{Paper: Opts{Trials: 8}, Quick: Opts{Trials: 3}, Mini: Opts{Trials: 3}}},
	{Name: "fig2", Run: one(fig2FileSizeThroughput),
		Sizes: Sizes{Paper: Opts{Trials: 8}, Quick: Opts{Trials: 3}, Mini: Opts{Trials: 3}}},
	{Name: "fig3", Run: one(fig3TemporalVariation)},
	{Name: "fig4", Run: one(fig4FailureBySize),
		Sizes: Sizes{Paper: Opts{Trials: 8}, Quick: Opts{Trials: 3}, Mini: Opts{Trials: 3}}},
	{Name: "tab1", Run: one(table1FailureCorrelation)},
	{Name: "fig8", Run: fig8Micro,
		Sizes: Sizes{Paper: Opts{Trials: 5, SizeMB: 32}, Quick: Opts{Trials: 2, SizeMB: 16}, Mini: Opts{Trials: 1, SizeMB: 4}}},
	{Name: "fig9", Run: one(fig9FileSizes),
		Sizes: Sizes{Paper: Opts{Trials: 5, SizeMB: 32}, Quick: Opts{Trials: 2}, Mini: Opts{Trials: 1, SizeMB: 8}}},
	{Name: "fig10", Run: one(fig10HourlyVariation),
		Sizes: Sizes{Paper: Opts{Trials: 24, SizeMB: 32}, Quick: Opts{SizeMB: 16}, Mini: Opts{Trials: 2, SizeMB: 8}}},
	{Name: "fig11", Aliases: []string{"tab2"}, Run: fig11BatchSync,
		Sizes: Sizes{Paper: Opts{Files: 100, FileKB: 1024, Sources: 7}, Quick: Opts{Files: 20, Sources: 3}, Mini: Opts{Files: 10, Sources: 2}}},
	{Name: "fig12", Run: one(fig12CumulativeSync),
		Sizes: Sizes{Paper: Opts{Files: 100, FileKB: 1024}, Quick: Opts{Files: 20}, Mini: Opts{Files: 8}}},
	{Name: "tab3", Run: one(table3Overhead),
		Sizes: Sizes{Paper: Opts{Files: 100, FileKB: 1024}, Quick: Opts{Files: 20}, Mini: Opts{Files: 8}}},
	{Name: "fig13", Run: one(fig13DeltaSync),
		Sizes: Sizes{Paper: Opts{Files: 1024, FileKB: 100}, Quick: Opts{Files: 256}, Mini: Opts{Files: 256}}},
	{Name: "fig14", Run: one(fig14Reliability),
		Sizes: Sizes{Paper: Opts{SizeMB: 32, Trials: 12}, Quick: Opts{Trials: 6}, Mini: Opts{SizeMB: 16, Trials: 4}}},
	{Name: "ablation", Run: func(o Opts) []*Table {
		return []*Table{ablationOverProvisioning(o), ablationDownloadScheduling(o), ablationChunkerTheta(o)}
	}, Sizes: Sizes{Paper: Opts{Trials: 7, SizeMB: 16}, Quick: Opts{Trials: 5}, Mini: Opts{Trials: 3, SizeMB: 8}}},
}

// Cluster is a simulated multi-cloud world shared by any number of
// vantage points: one network environment, one clock, one set of
// provider-side stores.
type Cluster struct {
	Clock  vclock.Clock
	Net    *netsim.Env
	Stores map[string]*cloudsim.Store
}

// NewCluster builds a five-cloud world with the given seed on a world
// clock (vclock.World): its virtual time moves only while every
// goroutine waits, so the simulated durations are those of the modelled
// network and protocol timers, whatever the host's speed or load.
func NewCluster(seed int64) *Cluster {
	clk := vclock.NewWorld(time.Unix(0, 0))
	profiles := netsim.FiveClouds()
	for i := range profiles {
		profiles[i].UpMbps /= DataScale
		profiles[i].DownMbps /= DataScale
		profiles[i].PerConnMbps /= DataScale
		profiles[i].FailurePerMB *= DataScale // failure-per-NOMINAL-MB preserved
	}
	cfg := netsim.DefaultConfig(seed)
	cfg.QuantumBytes /= DataScale
	c := &Cluster{Clock: clk, Net: netsim.NewEnv(clk, cfg, profiles), Stores: make(map[string]*cloudsim.Store, len(profiles))}
	for _, p := range profiles {
		c.Stores[p.Name] = cloudsim.NewStore(p.Name, 0)
	}
	return c
}

// Size converts a nominal byte count into the scaled-down size that
// actually moves through the simulator.
func (c *Cluster) Size(nominal int) int {
	if nominal > 0 && nominal < DataScale {
		return 1
	}
	return nominal / DataScale
}

// CloudNames returns the five provider names in profile order.
func (c *Cluster) CloudNames() []string {
	return append([]string(nil), fiveProviders...)
}

// fiveProviders names netsim.FiveClouds in profile order; usProviders
// are the three US ones (the temporal and failure studies, Fig 9 and
// Fig 11 compare against these).
var (
	fiveProviders = func() (names []string) {
		for _, p := range netsim.FiveClouds() {
			names = append(names, p.Name)
		}
		return names
	}()
	usProviders = []string{netsim.Dropbox, netsim.OneDrive, netsim.GDrive}
)

// Host attaches a new device at the location, scaling the client's
// access-link rates to match the cluster's data scale.
func (c *Cluster) Host(loc netsim.LocationProfile) *netsim.Host {
	loc.UplinkMbps /= DataScale
	loc.DownlinkMbps /= DataScale
	return c.Net.NewHost(loc)
}

// Site is one vantage point on the cluster: a host at a location and
// a shaped, recorded connector from it to every cloud, in profile
// order. The recorders separate an approach's own data units from
// protocol traffic (Table 3) and count Web-API calls (the trial).
type Site struct {
	Host      *netsim.Host
	Recorders []*cloudsim.Recorder
}

// Site attaches a new vantage point at the location.
func (c *Cluster) Site(loc netsim.LocationProfile) *Site {
	s := &Site{Host: c.Host(loc)}
	for _, n := range fiveProviders {
		s.Recorders = append(s.Recorders, cloudsim.NewRecorder(cloudsim.NewClient(c.Stores[n], s.Host)))
	}
	return s
}

// Clouds returns the site's connectors as the clients take them.
func (s *Site) Clouds() []cloud.Interface {
	out := make([]cloud.Interface, len(s.Recorders))
	for i, r := range s.Recorders {
		out[i] = r
	}
	return out
}

// Traffic reports the bytes the site has put on the wire in both
// directions, and how many of its uploaded bytes went to paths under
// prefix.
func (s *Site) Traffic(prefix string) (wire, payload int64) {
	up, down, _ := s.Host.Traffic()
	for _, r := range s.Recorders {
		payload += r.PrefixUploadBytes(prefix)
	}
	return up + down, payload
}

// Device is a UniDrive client with an in-memory sync folder at a Site,
// configured as the paper's evaluation is (§7.1): K=3, Kr=3, Ks=2 over
// the five clouds, θ = 4 MB nominal.
type Device struct {
	*Site
	Client *core.Client
	Folder *localfs.Mem
}

// NewDevice attaches a UniDrive device at the location. Devices of one
// cluster share one sync folder in the multi-cloud; name tells them
// apart.
func (c *Cluster) NewDevice(loc netsim.LocationProfile, name string) (*Device, error) {
	d := &Device{Site: c.Site(loc), Folder: localfs.NewMem()}
	var err error
	d.Client, err = core.New(d.Clouds(), d.Folder, core.Config{
		Device: name, Passphrase: "bench", Clock: c.Clock,
		K: paperParams.K, Kr: paperParams.Kr, Ks: paperParams.Ks,
		Theta: c.Size(core.DefaultTheta),
	})
	return d, err
}

// Time measures the simulated duration of f.
func (c *Cluster) Time(f func() error) (time.Duration, error) {
	start := c.Clock.Now()
	err := f()
	return c.Clock.Now().Sub(start), err
}

// Mbps renders a throughput (bytes over duration) in Mbit/s.
func Mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / d.Seconds()
}
