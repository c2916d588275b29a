package experiments

import (
	"context"
	"fmt"
	"time"

	"unidrive/internal/baseline"
	"unidrive/internal/netsim"
	"unidrive/internal/sched"
	"unidrive/internal/transfer"
	"unidrive/internal/workload"
)

// paperParams are the evaluation's placement parameters (§7.1).
var paperParams = sched.Params{N: 5, K: 3, Kr: 3, Ks: 2}

// approach is one of the four systems the evaluation compares (§7.1),
// attached to a cluster at a source location. Every §7 figure is a
// parameterisation of put and get.
type approach interface {
	// put uploads the files at the source and returns the paper's
	// *available time*: how long until another device could fetch them
	// all. UniDrive and the benchmark keep uploading past that instant
	// (the reliability tail, the remaining fair shares); for the native
	// app and the intuitive multi-cloud it is the whole upload.
	put(ctx context.Context, files []workload.File) (time.Duration, error)
	// get downloads the files on a device at the given location and
	// returns how long that took. progress, if not nil, is told how
	// many of the files have arrived so far (Fig 12).
	get(ctx context.Context, at netsim.LocationProfile, files []workload.File, progress func(done int)) (time.Duration, error)
	// traffic reports the source's wire bytes so far and how many of
	// its uploaded bytes were the approach's own data units — coded
	// blocks or file chunks, as opposed to protocol traffic (Table 3).
	traffic() (wire, payload int64)
}

// The approach names the figures use in their headers; any other name
// is a provider whose native app is meant.
const (
	uniDriveName  = "UniDrive"
	benchmarkName = "benchmark"
	intuitiveName = "intuitive"
)

// newApproach builds the named system on the cluster with its source
// at src.
func newApproach(name string, c *Cluster, src netsim.LocationProfile) (approach, error) {
	switch name {
	case uniDriveName:
		d, err := c.NewDevice(src, "src-"+src.Name)
		return &uniDrive{c: c, src: d, dsts: make(map[string]*Device)}, err
	case benchmarkName:
		b := &benchmark{c: c, Site: c.Site(src)}
		var err error
		b.sys, err = baseline.NewBenchmark(b.Clouds(), paperParams, 5)
		if err == nil {
			b.sys.OnAvailable = func() { b.available = c.Clock.Now().Sub(b.start) }
		}
		return b, err
	case intuitiveName:
		s := c.Site(src)
		return &intuitive{c: c, Site: s, sys: intuitiveOver(c, s)}, nil
	default:
		s := c.Site(src)
		return &native{c: c, Site: s, provider: name, app: nativeApp(c, s, name)}, nil
	}
}

// newLineup builds several approaches at one source.
func newLineup(names []string, c *Cluster, src netsim.LocationProfile) ([]approach, error) {
	apps := make([]approach, len(names))
	for i, n := range names {
		var err error
		if apps[i], err = newApproach(n, c, src); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
	}
	return apps, nil
}

// putEach uploads the files one after another, as the file-at-a-time
// baselines do, and times the whole batch.
func putEach(ctx context.Context, c *Cluster, files []workload.File, upload func(ctx context.Context, name string, data []byte) error) (time.Duration, error) {
	return c.Time(func() error {
		for _, f := range files {
			if err := upload(ctx, f.Name, f.Data); err != nil {
				return err
			}
		}
		return nil
	})
}

// getEach downloads and length-checks the files one after another.
func getEach(ctx context.Context, c *Cluster, files []workload.File, progress func(int), download func(ctx context.Context, name string, size int) ([]byte, error)) (time.Duration, error) {
	return c.Time(func() error {
		for i, f := range files {
			data, err := download(ctx, f.Name, len(f.Data))
			if err != nil {
				return err
			}
			if len(data) != len(f.Data) {
				return fmt.Errorf("%s: downloaded %d bytes, want %d", f.Name, len(data), len(f.Data))
			}
			if progress != nil {
				progress(i + 1)
			}
		}
		return nil
	})
}

// uniDrive runs the real core.Client: one device at the source, one
// more wherever a get asks for the files. A destination device is kept
// for later gets at the same place, as a user's second device would
// be, so they fetch only what is new.
type uniDrive struct {
	c    *Cluster
	src  *Device
	dsts map[string]*Device
}

func (u *uniDrive) put(ctx context.Context, files []workload.File) (time.Duration, error) {
	for _, f := range files {
		if err := u.src.Folder.WriteFile(f.Name, f.Data, u.c.Clock.Now()); err != nil {
			return 0, err
		}
	}
	// The pass runs on into the background reliability phase, which the
	// paper's figures do not count.
	rep, err := u.src.Client.SyncOnce(ctx)
	return rep.AvailableDuration, err
}

func (u *uniDrive) get(ctx context.Context, at netsim.LocationProfile, files []workload.File, progress func(int)) (time.Duration, error) {
	d := u.dsts[at.Name]
	if d == nil {
		var err error
		if d, err = u.c.NewDevice(at, "dst-"+at.Name); err != nil {
			return 0, err
		}
		u.dsts[at.Name] = d
	}
	arrived := func() int {
		n := 0
		for _, f := range files {
			if fi, err := d.Folder.Stat(f.Name); err == nil && fi.Size == int64(len(f.Data)) {
				n++
			}
		}
		return n
	}
	return u.c.Time(func() error {
		// One sync pass fetches everything; when someone wants to know,
		// poll the folder beside it for the files that have landed.
		done := make(chan error, 1)
		go func() {
			_, err := d.Client.SyncOnce(ctx)
			done <- err
		}()
		for {
			var tick <-chan time.Time
			if progress != nil {
				tick = u.c.Clock.After(5 * time.Second)
			}
			select {
			case <-tick:
				progress(arrived())
			case err := <-done:
				n := arrived()
				if progress != nil {
					progress(n)
				}
				if err == nil && n < len(files) {
					err = fmt.Errorf("%d of %d files arrived", n, len(files))
				}
				return err
			}
		}
	})
}

func (u *uniDrive) traffic() (wire, payload int64) {
	return u.src.Traffic(transfer.DefaultBlockDir)
}

// nativeApp models the provider's official client at a site. 4 MB is
// the apps' transfer chunk (where Fig 2's throughput gain flattens).
func nativeApp(c *Cluster, s *Site, provider string) *baseline.Native {
	for _, r := range s.Recorders {
		if r.Name() == provider {
			return baseline.NewNative(r, baseline.NativeConns(provider), c.Size(4<<20), baseline.NativeOverheadCalls(provider))
		}
	}
	panic("experiments: no cloud named " + provider)
}

// native is one provider's native app at both ends.
type native struct {
	c *Cluster
	*Site
	provider string
	app      *baseline.Native
}

func (n *native) put(ctx context.Context, files []workload.File) (time.Duration, error) {
	return putEach(ctx, n.c, files, n.app.Upload)
}

func (n *native) get(ctx context.Context, at netsim.LocationProfile, files []workload.File, progress func(int)) (time.Duration, error) {
	app := nativeApp(n.c, n.c.Site(at), n.provider)
	return getEach(ctx, n.c, files, progress, func(ctx context.Context, name string, _ int) ([]byte, error) {
		return app.Download(ctx, name)
	})
}

func (n *native) traffic() (wire, payload int64) { return n.Traffic("native/") }

// benchmark is the RACS/DepSky-style coded multi-cloud. Its available
// time ends when the last file's K-th block lands, not its last block.
type benchmark struct {
	c *Cluster
	*Site
	sys       *baseline.Benchmark
	start     time.Time
	available time.Duration
}

func (b *benchmark) put(ctx context.Context, files []workload.File) (time.Duration, error) {
	b.start = b.c.Clock.Now()
	_, err := putEach(ctx, b.c, files, b.sys.Upload)
	return b.available, err
}

func (b *benchmark) get(ctx context.Context, at netsim.LocationProfile, files []workload.File, progress func(int)) (time.Duration, error) {
	sys, err := baseline.NewBenchmark(b.c.Site(at).Clouds(), paperParams, 5)
	if err != nil {
		return 0, err
	}
	return getEach(ctx, b.c, files, progress, sys.Download)
}

func (b *benchmark) traffic() (wire, payload int64) { return b.Traffic("bench/") }

// intuitiveOver spreads 256 KB blocks over the five native apps of a
// site.
func intuitiveOver(c *Cluster, s *Site) *baseline.Intuitive {
	var apps []*baseline.Native
	for _, p := range fiveProviders {
		apps = append(apps, nativeApp(c, s, p))
	}
	return baseline.NewIntuitive(apps, c.Size(256<<10))
}

// intuitive is the naive multi-cloud over five native apps.
type intuitive struct {
	c *Cluster
	*Site
	sys *baseline.Intuitive
}

func (iv *intuitive) put(ctx context.Context, files []workload.File) (time.Duration, error) {
	return putEach(ctx, iv.c, files, iv.sys.Upload)
}

func (iv *intuitive) get(ctx context.Context, at netsim.LocationProfile, files []workload.File, progress func(int)) (time.Duration, error) {
	return getEach(ctx, iv.c, files, progress, intuitiveOver(iv.c, iv.c.Site(at)).Download)
}

func (iv *intuitive) traffic() (wire, payload int64) { return iv.Traffic("native/") }
