package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/localfs"
)

// span is one call across a layer boundary, recorded by the
// benchmark's own wrappers around the program (the program itself is
// not instrumented). Times are nanoseconds since the tracer started.
type span struct {
	Pass  int64  `json:"pass"` // id of the measured sync pass that caused the call
	Dev   string `json:"dev"`
	Layer string `json:"layer"`
	Op    string `json:"op"`
	Cloud string `json:"cloud,omitempty"`
	Path  string `json:"path,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`

	cls class
}

// tracer keeps spans in memory until the run ends. A nil tracer wraps
// nothing and records nothing: the timed run pays no tracing cost.
type tracer struct {
	origin time.Time
	pass   atomic.Int64 // set by the single driver goroutine

	mu    sync.Mutex
	spans []span
}

func (t *tracer) since() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) record(s span) {
	if s.Pass == 0 {
		return // set-up, or the driver's own checks: not part of the ledger
	}
	s.Layer = s.cls.String()
	s.End = t.since()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a span; finish it with record after setting Bytes.
func (t *tracer) begin(dev, op, cloudName, path string, cls class) span {
	return span{Pass: t.pass.Load(), Dev: dev, Op: op, Cloud: cloudName, Path: path, cls: cls, Start: t.since()}
}

// take returns the spans recorded since the last take.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func (t *tracer) wrapCloud(c cloud.Interface, dev string) cloud.Interface {
	if t == nil {
		return c
	}
	return &tracedCloud{inner: c, t: t, dev: dev}
}

func (t *tracer) wrapFolder(f localfs.Folder, dev string) localfs.Folder {
	if t == nil {
		return f
	}
	return &tracedFolder{inner: f, t: t, dev: dev}
}

// tracedCloud records one span per Web-API call, client side, directly
// above the cloudhttp connector.
type tracedCloud struct {
	inner cloud.Interface
	t     *tracer
	dev   string
}

var _ cloud.Interface = (*tracedCloud)(nil)

func (c *tracedCloud) begin(op, path string) span {
	return c.t.begin(c.dev, op, c.inner.Name(), path, classifyRemote(path))
}

func (c *tracedCloud) Name() string { return c.inner.Name() }

func (c *tracedCloud) Upload(ctx context.Context, path string, data []byte) error {
	s := c.begin("upload", path)
	err := c.inner.Upload(ctx, path, data)
	s.Bytes = int64(len(data))
	c.t.record(s)
	return err
}

func (c *tracedCloud) Download(ctx context.Context, path string) ([]byte, error) {
	s := c.begin("download", path)
	data, err := c.inner.Download(ctx, path)
	s.Bytes = int64(len(data))
	c.t.record(s)
	return data, err
}

func (c *tracedCloud) CreateDir(ctx context.Context, path string) error {
	s := c.begin("createdir", path)
	err := c.inner.CreateDir(ctx, path)
	c.t.record(s)
	return err
}

func (c *tracedCloud) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	s := c.begin("list", path)
	entries, err := c.inner.List(ctx, path)
	c.t.record(s)
	return entries, err
}

func (c *tracedCloud) Delete(ctx context.Context, path string) error {
	s := c.begin("delete", path)
	err := c.inner.Delete(ctx, path)
	c.t.record(s)
	return err
}

// tracedFolder records one span per sync-folder call.
type tracedFolder struct {
	inner localfs.Folder
	t     *tracer
	dev   string
}

var _ localfs.Folder = (*tracedFolder)(nil)

func (f *tracedFolder) begin(op, path string) span {
	return f.t.begin(f.dev, op, "", path, classifyLocal(path))
}

func (f *tracedFolder) ReadFile(path string) ([]byte, error) {
	s := f.begin("read", path)
	data, err := f.inner.ReadFile(path)
	s.Bytes = int64(len(data))
	f.t.record(s)
	return data, err
}

func (f *tracedFolder) WriteFile(path string, data []byte, modTime time.Time) error {
	s := f.begin("write", path)
	err := f.inner.WriteFile(path, data, modTime)
	s.Bytes = int64(len(data))
	f.t.record(s)
	return err
}

func (f *tracedFolder) Remove(path string) error {
	s := f.begin("remove", path)
	err := f.inner.Remove(path)
	f.t.record(s)
	return err
}

func (f *tracedFolder) Stat(path string) (localfs.FileInfo, error) {
	s := f.begin("stat", path)
	fi, err := f.inner.Stat(path)
	f.t.record(s)
	return fi, err
}

func (f *tracedFolder) ListAll() ([]localfs.FileInfo, error) {
	s := f.begin("listall", "")
	infos, err := f.inner.ListAll()
	f.t.record(s)
	return infos, err
}

// interval is a span reduced to what wall attribution needs.
type interval struct {
	start, end int64
	cls        class
}

// partition splits the pass [start, end) among the classes: every
// instant goes to the highest-priority (lowest-numbered) class with a
// call in flight, and to clsSelf when nothing is. Intervals are clipped
// to the pass, so the shares sum to end-start exactly.
//
// It also returns waves, the number of maximal stretches with at least
// one cloud request in flight (the pass's serial round-trip depth), and
// blockNS, the integral of in-flight block requests over time (divide
// by the pass length and the connection budget for occupancy).
func partition(start, end int64, ivs []interval) (shares [numClasses]int64, waves int, blockNS int64) {
	type edge struct {
		at    int64
		delta int
		cls   class
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, start), min(iv.end, end)
		if e <= s {
			continue
		}
		edges = append(edges, edge{s, +1, iv.cls}, edge{e, -1, iv.cls})
	}
	// Openings sort before closings at the same instant, so back-to-back
	// requests count as two waves only if time passes between them.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta
	})
	var active [numClasses]int
	remote := 0
	cur := start
	owner := func() class {
		for c := class(0); c < clsSelf; c++ {
			if active[c] > 0 {
				return c
			}
		}
		return clsSelf
	}
	for _, e := range edges {
		if e.at > cur {
			shares[owner()] += e.at - cur
			blockNS += int64(active[clsBlock]) * (e.at - cur)
			cur = e.at
		}
		active[e.cls] += e.delta
		if int(e.cls) < numRemote {
			if e.delta > 0 && remote == 0 {
				waves++
			}
			remote += e.delta
		}
	}
	shares[clsSelf] += end - cur
	return shares, waves, blockNS
}

// writeSpans dumps the run's spans as JSON under dir.
func writeSpans(dir, workload string, passes []passRec, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type passJSON struct {
		ID    int64  `json:"id"`
		Kind  string `json:"kind"`
		Dev   string `json:"dev"`
		Start int64  `json:"start"`
		End   int64  `json:"end"`
	}
	doc := struct {
		Workload string     `json:"workload"`
		Passes   []passJSON `json:"passes"`
		Spans    []span     `json:"spans"`
	}{Workload: workload, Spans: spans}
	for _, p := range passes {
		doc.Passes = append(doc.Passes, passJSON{p.id, p.kind.String(), p.dev, p.start, p.end})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	name := filepath.Join(dir, "spans-"+workload+".json")
	return name, os.WriteFile(name, data, 0o644)
}
