package transfer

import (
	"context"
	"errors"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

// Probing wraps a cloud.Interface so that every upload, download and
// listing — metadata, version files, lock flags, blocks — feeds the
// in-channel prober, exactly once: it is the only place requests are
// observed. This is the paper's probing scheme taken literally: "uses
// the last transmission as probes", with no dedicated probe traffic.
// The prober sorts the samples itself (sched.MinBandwidthSample):
// small control requests measure latency, block transfers bandwidth.
// Because control-plane traffic touches all clouds early (version
// checks query every cloud), the prober has a latency ranking before
// the first data block moves.
//
// Deletes and directory creation are not observed: like a delete to
// the capacity tracker, they are evidence of neither latency under
// load nor bandwidth.
type Probing struct {
	inner  cloud.Interface
	prober *sched.Prober
	clock  vclock.Clock
}

var _ cloud.Interface = (*Probing)(nil)

// NewProbing wraps inner with transfer observation.
func NewProbing(inner cloud.Interface, prober *sched.Prober, clock vclock.Clock) *Probing {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &Probing{inner: inner, prober: prober, clock: clock}
}

// Name implements cloud.Interface.
func (p *Probing) Name() string { return p.inner.Name() }

func (p *Probing) observe(dir sched.Direction, size int64, start time.Time, err error) {
	switch {
	case err == nil:
		p.prober.Observe(p.inner.Name(), dir, size, p.clock.Now().Sub(start))
	case errors.Is(err, cloud.ErrNotFound):
		// A perfectly healthy answer, and a prompt one: a latency sample.
		// (A cloud that missed the last commit answers its stamp poll
		// this way, and must not stay "never observed" for it.)
		p.prober.Observe(p.inner.Name(), dir, 0, p.clock.Now().Sub(start))
	case errors.Is(err, cloud.ErrTransient) || errors.Is(err, cloud.ErrUnavailable):
		// Only network-class failures say something about the cloud.
		p.prober.ObserveFailure(p.inner.Name(), dir)
	}
}

// Upload implements cloud.Interface.
func (p *Probing) Upload(ctx context.Context, path string, data []byte) error {
	start := p.clock.Now()
	err := p.inner.Upload(ctx, path, data)
	p.observe(sched.Up, int64(len(data)), start, err)
	return err
}

// Download implements cloud.Interface.
func (p *Probing) Download(ctx context.Context, path string) ([]byte, error) {
	start := p.clock.Now()
	data, err := p.inner.Download(ctx, path)
	p.observe(sched.Down, int64(len(data)), start, err)
	return data, err
}

// CreateDir implements cloud.Interface.
func (p *Probing) CreateDir(ctx context.Context, path string) error {
	return p.inner.CreateDir(ctx, path)
}

// List implements cloud.Interface.
func (p *Probing) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	start := p.clock.Now()
	entries, err := p.inner.List(ctx, path)
	// A listing is a latency sample: its reply size is the provider's
	// business, not payload the pipe was measured with.
	p.observe(sched.Down, 0, start, err)
	return entries, err
}

// Delete implements cloud.Interface.
func (p *Probing) Delete(ctx context.Context, path string) error {
	return p.inner.Delete(ctx, path)
}
