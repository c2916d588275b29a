package cloud

import (
	"context"
	"fmt"
	"time"

	"unidrive/internal/vclock"
)

// Op names one of the five Web API calls of Interface.
type Op string

// The five operations, one per Interface method.
const (
	OpUpload    Op = "upload"
	OpDownload  Op = "download"
	OpCreateDir Op = "createdir"
	OpList      Op = "list"
	OpDelete    Op = "delete"
)

// Call is the record of one finished Web API request: the single
// account of it that every interested layer (metrics, capacity,
// breaker, prober, request budgets) reads instead of wrapping the
// cloud and timing the request again.
type Call struct {
	Cloud string
	Op    Op
	Path  string
	// BytesUp is the payload of a successful upload, 0 otherwise;
	// BytesDown the length of whatever a download returned.
	BytesUp, BytesDown int64
	// Start and Latency are read from the chain's clock, once.
	Start   time.Time
	Latency time.Duration
	Err     error
}

// Observer is told of every request that reached the cloud, after it
// finished. Observers run on the calling goroutine, in the order the
// chain was built with.
type Observer func(Call)

// Gate decides, before a request is sent, whether it may be. An
// admitted request is always followed by one Call to the observers,
// which is how a breaker pairs its Allow with a Report.
type Gate interface {
	Allow() bool
}

// Chain is the one cloud.Interface middleware: it asks the gate,
// forwards the request, times it and hands the Call to each observer.
// A request the gate refuses fails with ErrCircuitOpen without
// touching the cloud, and no observer hears of it — a refusal is not
// a request.
type Chain struct {
	inner     Interface
	name      string
	clock     vclock.Clock
	gate      Gate
	observers []Observer
}

var _ Interface = (*Chain)(nil)

// NewChain wraps inner. A nil clock is the real clock, a nil gate
// admits everything.
func NewChain(inner Interface, clock vclock.Clock, gate Gate, observers ...Observer) *Chain {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &Chain{inner: inner, name: inner.Name(), clock: clock, gate: gate, observers: observers}
}

// Name implements Interface.
func (c *Chain) Name() string { return c.name }

// Unwrap returns the wrapped cloud.
func (c *Chain) Unwrap() Interface { return c.inner }

// begin asks the gate and starts the request's record.
func (c *Chain) begin(op Op, path string) (Call, error) {
	if c.gate != nil && !c.gate.Allow() {
		return Call{}, fmt.Errorf("cloud: %s %s rejected: %w", c.name, op, ErrCircuitOpen)
	}
	return Call{Cloud: c.name, Op: op, Path: path, Start: c.clock.Now()}, nil
}

// end completes the record and delivers it.
func (c *Chain) end(call Call, err error) error {
	call.Latency = c.clock.Now().Sub(call.Start)
	call.Err = err
	for _, observe := range c.observers {
		observe(call)
	}
	return err
}

// Upload implements Interface.
func (c *Chain) Upload(ctx context.Context, path string, data []byte) error {
	call, err := c.begin(OpUpload, path)
	if err != nil {
		return err
	}
	if err = c.inner.Upload(ctx, path, data); err == nil {
		call.BytesUp = int64(len(data))
	}
	return c.end(call, err)
}

// Download implements Interface.
func (c *Chain) Download(ctx context.Context, path string) ([]byte, error) {
	call, err := c.begin(OpDownload, path)
	if err != nil {
		return nil, err
	}
	data, err := c.inner.Download(ctx, path)
	call.BytesDown = int64(len(data))
	return data, c.end(call, err)
}

// CreateDir implements Interface.
func (c *Chain) CreateDir(ctx context.Context, path string) error {
	call, err := c.begin(OpCreateDir, path)
	if err != nil {
		return err
	}
	return c.end(call, c.inner.CreateDir(ctx, path))
}

// List implements Interface.
func (c *Chain) List(ctx context.Context, path string) ([]Entry, error) {
	call, err := c.begin(OpList, path)
	if err != nil {
		return nil, err
	}
	entries, err := c.inner.List(ctx, path)
	return entries, c.end(call, err)
}

// Delete implements Interface.
func (c *Chain) Delete(ctx context.Context, path string) error {
	call, err := c.begin(OpDelete, path)
	if err != nil {
		return err
	}
	return c.end(call, c.inner.Delete(ctx, path))
}
