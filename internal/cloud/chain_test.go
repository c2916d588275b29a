package cloud

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/vclock"
)

// countingCloud counts the requests that reach it, per op, answers
// with a scripted error and payload, and advances a manual clock by
// latency on every request.
type countingCloud struct {
	calls   map[Op]*atomic.Int64
	err     error
	data    []byte
	clock   *vclock.Manual
	latency time.Duration
}

func newCountingCloud() *countingCloud {
	c := &countingCloud{calls: make(map[Op]*atomic.Int64)}
	for _, op := range []Op{OpUpload, OpDownload, OpCreateDir, OpList, OpDelete} {
		c.calls[op] = new(atomic.Int64)
	}
	return c
}

func (c *countingCloud) hit(ctx context.Context, op Op) error {
	c.calls[op].Add(1)
	if c.clock != nil {
		c.clock.Advance(c.latency)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.err
}

func (c *countingCloud) total() int64 {
	var n int64
	for _, v := range c.calls {
		n += v.Load()
	}
	return n
}

func (c *countingCloud) Name() string { return "counted" }
func (c *countingCloud) Upload(ctx context.Context, _ string, _ []byte) error {
	return c.hit(ctx, OpUpload)
}
func (c *countingCloud) Download(ctx context.Context, _ string) ([]byte, error) {
	if err := c.hit(ctx, OpDownload); err != nil {
		return nil, err
	}
	return c.data, nil
}
func (c *countingCloud) CreateDir(ctx context.Context, _ string) error {
	return c.hit(ctx, OpCreateDir)
}
func (c *countingCloud) List(ctx context.Context, _ string) ([]Entry, error) {
	return nil, c.hit(ctx, OpList)
}
func (c *countingCloud) Delete(ctx context.Context, _ string) error { return c.hit(ctx, OpDelete) }

type gateFunc func() bool

func (g gateFunc) Allow() bool { return g() }

// fiveOps issues one request of each kind through c.
func fiveOps(ctx context.Context, c Interface) []error {
	_, derr := c.Download(ctx, "p")
	_, lerr := c.List(ctx, "p")
	return []error{c.Upload(ctx, "p", []byte("12345")), derr, c.CreateDir(ctx, "p"), lerr, c.Delete(ctx, "p")}
}

// The chain's contract, one row per situation: how many Calls every
// observer gets, in which order, with which bytes and error — and how
// many requests reach the cloud.
func TestChainContract(t *testing.T) {
	boom := errors.New("boom")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name      string
		ctx       context.Context
		err       error
		refuse    bool
		wantErr   error
		wantCalls int // per observer, and requests reaching the cloud
		wantUp    int64
		wantDown  int64
	}{
		{name: "success", ctx: context.Background(), wantCalls: 5, wantUp: 5, wantDown: 4},
		{name: "failure", ctx: context.Background(), err: boom, wantErr: boom, wantCalls: 5},
		{name: "gate refusal", ctx: context.Background(), refuse: true, wantErr: ErrCircuitOpen},
		{name: "cancelled context", ctx: cancelled, wantErr: context.Canceled, wantCalls: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vclock.NewManual(time.Unix(100, 0))
			inner := newCountingCloud()
			inner.err, inner.data, inner.clock, inner.latency = tc.err, []byte("abcd"), clock, 20*time.Millisecond
			var order []string
			var seen [2][]Call
			observer := func(i int, name string) Observer {
				return func(c Call) {
					order = append(order, name)
					seen[i] = append(seen[i], c)
				}
			}
			chain := NewChain(inner, clock, gateFunc(func() bool { return !tc.refuse }),
				observer(0, "first"), observer(1, "second"))
			if chain.Name() != "counted" || chain.Unwrap() != Interface(inner) {
				t.Fatal("Name/Unwrap lost the inner cloud")
			}
			for i, err := range fiveOps(tc.ctx, chain) {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("op %d: err = %v, want %v", i, err, tc.wantErr)
				}
			}
			if got := inner.total(); got != int64(tc.wantCalls) {
				t.Fatalf("%d requests reached the cloud, want %d", got, tc.wantCalls)
			}
			if len(seen[0]) != tc.wantCalls || len(seen[1]) != tc.wantCalls {
				t.Fatalf("observers got %d and %d Calls, want %d each", len(seen[0]), len(seen[1]), tc.wantCalls)
			}
			// Declared order, request by request: first, second, first, …
			for i, name := range order {
				if want := []string{"first", "second"}[i%2]; name != want {
					t.Fatalf("delivery %d went to %s, want %s (order %v)", i, name, want, order)
				}
			}
			var up, down int64
			ops := map[Op]int{}
			for i, c := range seen[0] {
				if c != seen[1][i] {
					t.Fatalf("observers saw different records: %+v vs %+v", c, seen[1][i])
				}
				if c.Cloud != "counted" || c.Path != "p" || c.Latency != 20*time.Millisecond ||
					!errors.Is(c.Err, tc.wantErr) {
					t.Fatalf("record %+v: want cloud counted, path p, 20ms, err %v", c, tc.wantErr)
				}
				if want := time.Unix(100, 0).Add(time.Duration(i) * 20 * time.Millisecond); !c.Start.Equal(want) {
					t.Fatalf("record %d starts at %v, want %v", i, c.Start, want)
				}
				ops[c.Op]++
				up += c.BytesUp
				down += c.BytesDown
			}
			for op, n := range ops {
				if n != 1 {
					t.Fatalf("%d records for %s, want 1", n, op)
				}
			}
			// BytesUp only on a successful upload, BytesDown = returned length.
			if up != tc.wantUp || down != tc.wantDown {
				t.Fatalf("bytes up/down = %d/%d, want %d/%d", up, down, tc.wantUp, tc.wantDown)
			}
		})
	}
}

// A nil clock and a nil gate are the real clock and no gate.
func TestChainDefaults(t *testing.T) {
	inner := newCountingCloud()
	var got []Call
	chain := NewChain(inner, nil, nil, func(c Call) { got = append(got, c) })
	if err := chain.Upload(context.Background(), "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Op != OpUpload || got[0].BytesUp != 1 || got[0].Start.IsZero() {
		t.Fatalf("records = %+v", got)
	}
}

// 64 goroutines × 5 ops: every request is delivered exactly once and
// the per-op counts reconcile exactly with the cloud's own.
func TestChainConcurrentReconciles(t *testing.T) {
	inner := newCountingCloud()
	seen := make(map[Op]*atomic.Int64)
	for op := range inner.calls {
		seen[op] = new(atomic.Int64)
	}
	chain := NewChain(inner, nil, gateFunc(func() bool { return true }),
		func(c Call) { seen[c.Op].Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, err := range fiveOps(context.Background(), chain) {
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for op, n := range inner.calls {
		if n.Load() != 64 || seen[op].Load() != 64 {
			t.Fatalf("%s: cloud saw %d, observer %d, want 64 each", op, n.Load(), seen[op].Load())
		}
	}
}
