package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/vclock"
)

// Flaky wraps a cloud.Interface and injects faults: transient
// failures with a fixed probability, full outages (switched or
// scripted per op-index window), quota exhaustion (switched or
// scripted; uploads rejected, everything else served), per-op latency
// (fixed plus seeded-random jitter), and a stall mode in which calls
// hang until their context is cancelled. Tests use it to exercise
// retry paths, circuit breakers, hedged requests, capacity
// degradation, and the lock protocol's failure handling without the
// full netsim model.
type Flaky struct {
	inner cloud.Interface
	prob  float64
	seed  int64

	mu  sync.Mutex
	rng *rand.Rand
	// down simulates a full outage when set.
	down bool
	// stall makes calls hang until ctx cancellation when set.
	stall bool
	// latBase/latJitter inject per-op latency: latBase plus a seeded
	// uniform draw from [0, latJitter).
	latBase   time.Duration
	latJitter time.Duration
	// clock paces injected latency (default: real time).
	clock vclock.Clock
	// opIndex numbers the calls seen so far; outages holds scripted
	// [from, to) windows of op indexes during which the cloud is down.
	opIndex int
	outages [][2]int
	// stalls counts calls that entered the stall state.
	stalls int
	// corrupted marks paths whose content is served damaged (at-rest
	// corruption); cleared by a successful Upload to the same path.
	corrupted map[string]CorruptMode
	// corruptServes counts downloads that returned damaged bytes.
	corruptServes int
	// quotaFull simulates an exhausted quota when set: every Upload is
	// rejected with cloud.ErrQuotaExceeded while all other operations
	// keep working — the capacity-pressure fault shape.
	quotaFull bool
	// quotaWindows holds scripted [from, to) windows of op indexes
	// during which uploads are quota-rejected, composing with
	// quotaFull the way outages compose with down.
	quotaWindows [][2]int
	// injQuota counts the quota rejections actually injected (uploads
	// only — quota never fails reads).
	injQuota int
	// injTransient / injOutage count the faults actually injected,
	// per operation, so chaos tests can reconcile observed failures
	// against them exactly.
	injTransient CallCounts
	injOutage    CallCounts
}

var _ cloud.Interface = (*Flaky)(nil)

// NewFlaky wraps inner so each call fails with probability prob.
func NewFlaky(inner cloud.Interface, prob float64, seed int64) *Flaky {
	return &Flaky{inner: inner, prob: prob, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// CorruptMode selects the shape of at-rest corruption.
type CorruptMode int

const (
	// CorruptBitFlip flips one bit of the content — silent rot that
	// only a checksum can catch.
	CorruptBitFlip CorruptMode = iota
	// CorruptTruncate drops the second half of the content — the
	// partial-object failure mode of interrupted uploads.
	CorruptTruncate
	// CorruptStale replaces the content with same-length garbage — a
	// wrong-object overwrite (misdirected write, stale replica).
	CorruptStale
)

// CorruptPath marks a stored object as damaged at rest: every
// Download of the path serves a deterministically corrupted copy (the
// same wrong bytes each time, like real bit rot) until a successful
// Upload to the path replaces the object and clears the mark.
func (f *Flaky) CorruptPath(path string, mode CorruptMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.corrupted == nil {
		f.corrupted = make(map[string]CorruptMode)
	}
	f.corrupted[path] = mode
}

// CorruptServes reports how many downloads returned damaged bytes.
func (f *Flaky) CorruptServes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.corruptServes
}

// CorruptedPaths returns the paths still marked damaged, sorted.
func (f *Flaky) CorruptedPaths() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.corrupted))
	for p := range f.corrupted {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// corruptBytes damages data deterministically from seed: repeated
// serves of the same rotten object must agree byte for byte.
func corruptBytes(data []byte, mode CorruptMode, seed int64) []byte {
	out := append([]byte(nil), data...)
	rng := rand.New(rand.NewSource(seed))
	switch mode {
	case CorruptTruncate:
		out = out[:len(out)/2]
	case CorruptStale:
		rng.Read(out)
	default: // CorruptBitFlip
		if len(out) > 0 {
			i := rng.Intn(len(out))
			out[i] ^= 1 << uint(rng.Intn(8))
		}
	}
	return out
}

// pathSeed folds a path into the wrapper's seed so each corrupted
// object gets its own, stable damage pattern.
func pathSeed(seed int64, path string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(path); i++ {
		h ^= int64(path[i])
		h *= 1099511628211
	}
	return seed ^ h
}

// SetDown switches the wrapped cloud into (or out of) a full outage.
func (f *Flaky) SetDown(down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = down
}

// SetStall switches stall mode: while set, every call blocks until
// its context is cancelled and then returns the context's error. This
// models a hung connection (accepted but never answered) — the
// failure mode hedged requests exist for.
func (f *Flaky) SetStall(stall bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stall = stall
}

// Stalls reports how many calls entered the stall state.
func (f *Flaky) Stalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stalls
}

// SetLatency makes every call take base plus a seeded-uniform draw
// from [0, jitter) before reaching the wrapped cloud (or failing).
// Zero values disable the respective part.
func (f *Flaky) SetLatency(base, jitter time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latBase, f.latJitter = base, jitter
}

// SetClock sets the clock pacing injected latency; nil resets to the
// real wall clock.
func (f *Flaky) SetClock(clk vclock.Clock) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.clock = clk
}

// AddOutageWindow scripts a full outage between the from-th call
// (inclusive) and the to-th call (exclusive), counted across all
// operations on this wrapper. Windows compose with SetDown; outside
// every window the cloud behaves normally.
func (f *Flaky) AddOutageWindow(from, to int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.outages = append(f.outages, [2]int{from, to})
}

// SetQuotaFull switches the wrapped cloud into (or out of) quota
// exhaustion: while set, every Upload is rejected with
// cloud.ErrQuotaExceeded and counted, while downloads, lists,
// createdirs and deletes keep working — a full cloud is not a dead
// cloud.
func (f *Flaky) SetQuotaFull(full bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quotaFull = full
}

// AddQuotaWindow scripts quota exhaustion between the from-th call
// (inclusive) and the to-th call (exclusive), counted across all
// operations on this wrapper (only uploads landing inside the window
// are rejected). Windows compose with SetQuotaFull; outside every
// window uploads flow normally.
func (f *Flaky) AddQuotaWindow(from, to int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quotaWindows = append(f.quotaWindows, [2]int{from, to})
}

// InjectedQuota reports how many quota rejections this wrapper has
// injected — the exact count chaos soaks reconcile against the
// capacity tracker's observations.
func (f *Flaky) InjectedQuota() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injQuota
}

// Ops reports how many calls this wrapper has seen, i.e. the op index
// the next call will get — tests use it to position outage windows.
func (f *Flaky) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opIndex
}

func (f *Flaky) fail(ctx context.Context, op string, bump func(*CallCounts)) error {
	f.mu.Lock()
	idx := f.opIndex
	f.opIndex++
	down := f.down
	for _, w := range f.outages {
		if idx >= w[0] && idx < w[1] {
			down = true
			break
		}
	}
	quota := false
	if op == "upload" && !down {
		quota = f.quotaFull
		for _, w := range f.quotaWindows {
			if idx >= w[0] && idx < w[1] {
				quota = true
				break
			}
		}
	}
	var err error
	if down {
		bump(&f.injOutage)
		err = fmt.Errorf("flaky %s %s: %w", f.inner.Name(), op, cloud.ErrUnavailable)
	} else if quota {
		// Quota beats the transient dice: a full provider answers
		// deterministically, so injected rejections reconcile exactly.
		f.injQuota++
		err = fmt.Errorf("flaky %s %s: %w", f.inner.Name(), op, cloud.ErrQuotaExceeded)
	} else if f.rng.Float64() < f.prob {
		bump(&f.injTransient)
		err = fmt.Errorf("flaky %s %s: %w", f.inner.Name(), op, cloud.ErrTransient)
	}
	stall := f.stall && !down
	if stall {
		f.stalls++
	}
	var delay time.Duration
	if f.latBase > 0 {
		delay = f.latBase
	}
	if f.latJitter > 0 {
		delay += time.Duration(f.rng.Int63n(int64(f.latJitter)))
	}
	clk := f.clock
	f.mu.Unlock()

	if stall {
		<-ctx.Done()
		return fmt.Errorf("flaky %s %s stalled: %w", f.inner.Name(), op, ctx.Err())
	}
	if delay > 0 {
		if clk == nil {
			clk = vclock.Real{}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-clk.After(delay):
		}
	}
	return err
}

// InjectedFaults returns how many transient failures and outage
// errors this wrapper has injected so far, per operation.
func (f *Flaky) InjectedFaults() (transient, outage CallCounts) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injTransient, f.injOutage
}

// Name implements cloud.Interface.
func (f *Flaky) Name() string { return f.inner.Name() }

// Upload implements cloud.Interface. A successful upload replaces the
// stored object, so it clears any at-rest corruption mark on the path
// — the repair write path of the scrubber.
func (f *Flaky) Upload(ctx context.Context, path string, data []byte) error {
	if err := f.fail(ctx, "upload", func(c *CallCounts) { c.Upload++ }); err != nil {
		return err
	}
	if err := f.inner.Upload(ctx, path, data); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.corrupted, path)
	f.mu.Unlock()
	return nil
}

// Download implements cloud.Interface. Paths marked with CorruptPath
// are served damaged.
func (f *Flaky) Download(ctx context.Context, path string) ([]byte, error) {
	if err := f.fail(ctx, "download", func(c *CallCounts) { c.Download++ }); err != nil {
		return nil, err
	}
	data, err := f.inner.Download(ctx, path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	mode, rotten := f.corrupted[path]
	if rotten {
		f.corruptServes++
	}
	seed := pathSeed(f.seed, path)
	f.mu.Unlock()
	if rotten {
		data = corruptBytes(data, mode, seed)
	}
	return data, nil
}

// CreateDir implements cloud.Interface.
func (f *Flaky) CreateDir(ctx context.Context, path string) error {
	if err := f.fail(ctx, "createdir", func(c *CallCounts) { c.CreateDir++ }); err != nil {
		return err
	}
	return f.inner.CreateDir(ctx, path)
}

// List implements cloud.Interface.
func (f *Flaky) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	if err := f.fail(ctx, "list", func(c *CallCounts) { c.List++ }); err != nil {
		return nil, err
	}
	return f.inner.List(ctx, path)
}

// Delete implements cloud.Interface.
func (f *Flaky) Delete(ctx context.Context, path string) error {
	if err := f.fail(ctx, "delete", func(c *CallCounts) { c.Delete++ }); err != nil {
		return err
	}
	return f.inner.Delete(ctx, path)
}

// CallCounts tallies API calls per operation, recorded by Recorder.
type CallCounts struct {
	Upload, Download, CreateDir, List, Delete int
}

// Total returns the sum of all operation counts.
func (c CallCounts) Total() int {
	return c.Upload + c.Download + c.CreateDir + c.List + c.Delete
}

// Plus returns the per-operation sum of c and o.
func (c CallCounts) Plus(o CallCounts) CallCounts {
	return CallCounts{
		Upload: c.Upload + o.Upload, Download: c.Download + o.Download,
		CreateDir: c.CreateDir + o.CreateDir, List: c.List + o.List, Delete: c.Delete + o.Delete,
	}
}

// Minus returns the per-operation difference c − o: the calls made
// since an earlier snapshot o.
func (c CallCounts) Minus(o CallCounts) CallCounts {
	return CallCounts{
		Upload: c.Upload - o.Upload, Download: c.Download - o.Download,
		CreateDir: c.CreateDir - o.CreateDir, List: c.List - o.List, Delete: c.Delete - o.Delete,
	}
}

// Recorder wraps a cloud.Interface and counts calls and payload
// bytes; tests and the overhead accounting use it to verify protocol
// frugality (e.g. that the version-file fast path avoids metadata
// downloads). It is a cloud.Chain with one observer, its own
// accounting.
type Recorder struct {
	*cloud.Chain

	mu            sync.Mutex
	counts        CallCounts
	byPath        map[string]*CallCounts
	failures      CallCounts
	bytesUp       int64
	bytesDown     int64
	uploadedPaths []string
	uploadedSizes []int64
}

// NewRecorder wraps inner with call accounting.
func NewRecorder(inner cloud.Interface) *Recorder {
	r := &Recorder{byPath: make(map[string]*CallCounts)}
	r.Chain = cloud.NewChain(inner, nil, nil, r.observe)
	return r
}

// counter returns the field of c that counts op.
func (c *CallCounts) counter(op cloud.Op) *int {
	switch op {
	case cloud.OpUpload:
		return &c.Upload
	case cloud.OpDownload:
		return &c.Download
	case cloud.OpCreateDir:
		return &c.CreateDir
	case cloud.OpList:
		return &c.List
	default:
		return &c.Delete
	}
}

// observe counts one finished call, overall and against its path.
// Payload bytes and paths are recorded only for successful transfers,
// so retried attempts do not inflate the payload accounting; only
// network-class errors (transient, outage) of an upload or download
// count as failures for the availability statistics.
func (r *Recorder) observe(c cloud.Call) {
	r.mu.Lock()
	defer r.mu.Unlock()
	*r.counts.counter(c.Op)++
	p := r.byPath[c.Path]
	if p == nil {
		p = new(CallCounts)
		r.byPath[c.Path] = p
	}
	*p.counter(c.Op)++
	transfer := c.Op == cloud.OpUpload || c.Op == cloud.OpDownload
	switch {
	case c.Err == nil && c.Op == cloud.OpUpload:
		r.bytesUp += c.BytesUp
		r.uploadedPaths = append(r.uploadedPaths, c.Path)
		r.uploadedSizes = append(r.uploadedSizes, c.BytesUp)
	case c.Err == nil:
		r.bytesDown += c.BytesDown
	case transfer && (errors.Is(c.Err, cloud.ErrTransient) || errors.Is(c.Err, cloud.ErrUnavailable)):
		*r.failures.counter(c.Op)++
	}
}

// Counts returns a snapshot of the per-operation call counts.
func (r *Recorder) Counts() CallCounts {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts
}

// CountsUnder returns the call counts of the requests whose path is
// prefix or lies below it — request budgets are stated per layout
// directory (lock flags, version stamp, delta, blocks).
func (r *Recorder) CountsUnder(prefix string) CallCounts {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum CallCounts
	below := prefix + "/"
	for path, c := range r.byPath {
		if path == prefix || strings.HasPrefix(path, below) {
			sum = sum.Plus(*c)
		}
	}
	return sum
}

// Bytes returns the cumulative uploaded and downloaded payload bytes.
func (r *Recorder) Bytes() (up, down int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytesUp, r.bytesDown
}

// UploadedPaths returns the paths passed to Upload, in order.
func (r *Recorder) UploadedPaths() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.uploadedPaths...)
}

// PrefixUploadBytes returns the payload bytes uploaded to paths with
// the given prefix — the traffic-overhead experiments use it to
// separate data-plane payload from protocol traffic.
func (r *Recorder) PrefixUploadBytes(prefix string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for i, p := range r.uploadedPaths {
		if strings.HasPrefix(p, prefix) {
			total += r.uploadedSizes[i]
		}
	}
	return total
}

// FailureCounts returns per-operation counts of failed calls
// (transient or outage errors from the wrapped cloud).
func (r *Recorder) FailureCounts() CallCounts {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failures
}
