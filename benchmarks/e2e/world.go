package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudhttp"
	"unidrive/internal/cloudsim"
	"unidrive/internal/core"
	"unidrive/internal/health"
	"unidrive/internal/localfs"
	"unidrive/internal/netsim"
	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

// cloudSpec is one provider of the WAN shaping profile.
type cloudSpec struct {
	name        string
	apiLatency  time.Duration
	perConnMbps float64
}

// wanClouds is the shaping profile of the *_wan workloads: 6x
// bandwidth and 4x latency disparity between the best and the worst
// provider, so the scheduler has something to mask. The per-account
// capacity is 3x the per-connection cap, so the fourth and fifth
// connection to one cloud buy nothing.
var wanClouds = []cloudSpec{
	{"alpha", 5 * time.Millisecond, 200},
	{"beta", 7500 * time.Microsecond, 160},
	{"gamma", 5 * time.Millisecond, 240},
	{"delta", 15 * time.Millisecond, 80},
	{"epsilon", 20 * time.Millisecond, 40},
}

// fastClouds are the two providers with the highest per-connection
// rate; sched.fast_cloud_byte_share_pct is measured against them.
var fastClouds = map[string]bool{"alpha": true, "gamma": true}

const slowestCloud = "epsilon"

// accountFactor is UpMbps = DownMbps = accountFactor x PerConnMbps.
const accountFactor = 3

// accessLinkMbps is each device's access link (10 Gbit/s: never the
// bottleneck, the clouds are).
const accessLinkMbps = 10000

func wanProfiles() []netsim.CloudProfile {
	out := make([]netsim.CloudProfile, len(wanClouds))
	for i, c := range wanClouds {
		out[i] = netsim.CloudProfile{
			Name:        c.name,
			UpMbps:      accountFactor * c.perConnMbps,
			DownMbps:    accountFactor * c.perConnMbps,
			PerConnMbps: c.perConnMbps,
			APILatency:  c.apiLatency,
			// The sampler reads Sigma == 0 as "use the default 0.4", so a
			// flat rate needs a vanishing, not a zero, sigma.
			Sigma: 1e-12,
		}
	}
	return out
}

// traffic is server-counted requests and payload bytes per class.
type traffic struct {
	req, up, down [numRemote]int64
}

func (t traffic) sub(o traffic) traffic {
	for i := 0; i < numRemote; i++ {
		t.req[i] -= o.req[i]
		t.up[i] -= o.up[i]
		t.down[i] -= o.down[i]
	}
	return t
}

func (t *traffic) add(o traffic) {
	for i := 0; i < numRemote; i++ {
		t.req[i] += o.req[i]
		t.up[i] += o.up[i]
		t.down[i] += o.down[i]
	}
}

func (t traffic) requests() (n int64) {
	for _, v := range t.req {
		n += v
	}
	return n
}

func (t traffic) bytes() (n int64) {
	for i := 0; i < numRemote; i++ {
		n += t.up[i] + t.down[i]
	}
	return n
}

// counted sits between a cloudhttp handler and its backend and counts
// what the server was asked to do, in every run. With timed set it
// also accumulates the time spent inside the backend (the injected
// network delay on WAN workloads), which the traced run subtracts from
// client-observed time to isolate the HTTP layer.
type counted struct {
	backend cloud.Interface
	timed   bool

	req, up, down [numRemote]atomic.Int64
	// serverNS is backend time per class; block-class requests without a
	// payload (deletes) go to the extra deleteSlot, so that the block
	// slot holds transfers only.
	serverNS [numRemote + 1]atomic.Int64
}

const deleteSlot = numRemote

var _ cloud.Interface = (*counted)(nil)

func (c *counted) snapshot() (t traffic) {
	for i := 0; i < numRemote; i++ {
		t.req[i] = c.req[i].Load()
		t.up[i] = c.up[i].Load()
		t.down[i] = c.down[i].Load()
	}
	return t
}

func (c *counted) note(path string, up, down int64, start time.Time) {
	cl := classifyRemote(path)
	c.req[cl].Add(1)
	c.up[cl].Add(up)
	c.down[cl].Add(down)
	if c.timed {
		slot := int(cl)
		if cl == clsBlock && up+down == 0 {
			slot = deleteSlot
		}
		c.serverNS[slot].Add(int64(time.Since(start)))
	}
}

func (c *counted) now() (t time.Time) {
	if c.timed {
		t = time.Now()
	}
	return t
}

func (c *counted) Name() string { return c.backend.Name() }

func (c *counted) Upload(ctx context.Context, path string, data []byte) error {
	start := c.now()
	err := c.backend.Upload(ctx, path, data)
	c.note(path, int64(len(data)), 0, start)
	return err
}

func (c *counted) Download(ctx context.Context, path string) ([]byte, error) {
	start := c.now()
	data, err := c.backend.Download(ctx, path)
	c.note(path, 0, int64(len(data)), start)
	return data, err
}

func (c *counted) CreateDir(ctx context.Context, path string) error {
	start := c.now()
	err := c.backend.CreateDir(ctx, path)
	c.note(path, 0, 0, start)
	return err
}

func (c *counted) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	start := c.now()
	entries, err := c.backend.List(ctx, path)
	// Same estimate of the JSON response as cloudsim's own traffic meter.
	var size int64
	for _, e := range entries {
		size += int64(len(e.Name)) + 64
	}
	c.note(path, 0, size, start)
	return entries, err
}

func (c *counted) Delete(ctx context.Context, path string) error {
	start := c.now()
	err := c.backend.Delete(ctx, path)
	c.note(path, 0, 0, start)
	return err
}

// device is one UniDrive client with its own folder, connections,
// telemetry and (on WAN workloads) network vantage point, wired the way
// cmd/unidrive wires a process.
type device struct {
	name      string
	mem       *localfs.Mem
	client    *core.Client
	reg       *obs.Registry
	transport *http.Transport
	// served are the counting wrappers of this device's five endpoints,
	// in wanClouds order.
	served []*counted
}

// traffic sums the device's server-side counters over all clouds.
func (d *device) traffic() (t traffic) {
	for _, c := range d.served {
		t.add(c.snapshot())
	}
	return t
}

// world is five cloud stores, and per device five loopback HTTP
// servers in front of them.
type world struct {
	stores  []*cloudsim.Store
	env     *netsim.Env // nil on the LAN workload
	servers []*http.Server
	serving sync.WaitGroup
	a, b    *device
}

// worldConfig selects what a world is built with.
type worldConfig struct {
	wan   bool
	seed  int64
	trace *tracer // nil outside the traced run
}

func newWorld(ctx context.Context, cfg worldConfig) (*world, error) {
	w := &world{}
	for _, c := range wanClouds {
		w.stores = append(w.stores, cloudsim.NewStore(c.name, 0))
	}
	if cfg.wan {
		nc := netsim.DefaultConfig(cfg.seed)
		nc.DegradedProb = 0
		nc.EpochLength = 0 // one epoch: no temporal fluctuation
		w.env = netsim.NewEnv(vclock.Real{}, nc, wanProfiles())
	}
	var err error
	if w.a, err = w.newDevice(ctx, "device-a", cfg); err == nil {
		w.b, err = w.newDevice(ctx, "device-b", cfg)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *world) newDevice(ctx context.Context, name string, cfg worldConfig) (*device, error) {
	d := &device{
		name:      name,
		mem:       localfs.NewMem(),
		reg:       obs.NewRegistry(),
		transport: http.DefaultTransport.(*http.Transport).Clone(),
	}
	var host *netsim.Host
	if w.env != nil {
		host = w.env.NewHost(netsim.LocationProfile{
			Name: name, UplinkMbps: accessLinkMbps, DownlinkMbps: accessLinkMbps,
		})
	}
	hc := &http.Client{Transport: d.transport}
	var clouds []cloud.Interface
	for _, store := range w.stores {
		var backend cloud.Interface = cloudsim.NewDirect(store)
		if host != nil {
			backend = cloudsim.NewClient(store, host)
		}
		cnt := &counted{backend: backend, timed: cfg.trace != nil}
		d.served = append(d.served, cnt)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: cloudhttp.NewHandler(cnt), ReadHeaderTimeout: 10 * time.Second}
		w.servers = append(w.servers, srv)
		w.serving.Add(1)
		go func() {
			defer w.serving.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed on close()
		}()
		c, err := cloudhttp.Dial(ctx, "http://"+ln.Addr().String(), hc)
		if err != nil {
			return nil, err
		}
		clouds = append(clouds, cfg.trace.wrapCloud(c, name))
	}
	tracker := health.NewDefaultTracker(vclock.Real{}, cfg.seed, d.reg)
	client, err := core.New(clouds, cfg.trace.wrapFolder(d.mem, name), core.Config{
		Device:     name,
		Passphrase: "e2e-bench",
		K:          3,
		Ks:         2,
		Obs:        d.reg,
		Health:     tracker,
		Capacity:   capacity.NewDefaultTracker(vclock.Real{}, d.reg),
	})
	if err != nil {
		return nil, err
	}
	// cmd/unidrive restores state and replays the journal before its
	// first pass; on a fresh folder both are no-ops, kept for fidelity.
	if _, _, err := client.LoadState(); err != nil {
		return nil, fmt.Errorf("%s: load state: %w", name, err)
	}
	if _, err := client.Recover(ctx); err != nil {
		return nil, fmt.Errorf("%s: recover: %w", name, err)
	}
	d.client = client
	return d, nil
}

// close stops every server and waits for its accept loop to return.
func (w *world) close() {
	for _, d := range []*device{w.a, w.b} {
		if d != nil {
			d.transport.CloseIdleConnections()
		}
	}
	for _, srv := range w.servers {
		_ = srv.Close()
	}
	w.serving.Wait()
}
