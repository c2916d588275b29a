package cloud

import (
	"context"
	"sync/atomic"
)

// Quorum returns the majority of n clouds: n/2 + 1. Any two sets of
// Quorum(n) clouds out of n share at least one cloud, since together
// they count more than n. Everything the quorum protocols guarantee
// (paper §5.2) rests on that one fact: two devices that each hold the
// lock on a quorum met on some cloud, where the one listing second saw
// the other's flag; and a stamp poll that heard a quorum heard at least
// one cloud the last commit reached, which succeeds only on a quorum.
func Quorum(n int) int { return n/2 + 1 }

// Fanout is one request chain per cloud, all started at once, each
// answer landing the moment its chain ends: a landing answer never
// waits for a reader. The callers either decide at the answers that
// land first (Next) or wait for every one (Wait, Done); a chain still
// running after its caller decided keeps going.
type Fanout[T any] struct {
	answers []T
	ended   []chan struct{}
	// landed receives each chain's index as its answer lands and is
	// closed after the last; it has a slot per chain.
	landed chan int
	done   chan struct{}
	left   atomic.Int32
}

// Each starts f(ctx, i) for every i in [0, n), each on its own
// goroutine, and returns the fan-out of their answers.
func Each[T any](ctx context.Context, n int, f func(ctx context.Context, i int) T) *Fanout[T] {
	fo := &Fanout[T]{
		answers: make([]T, n),
		ended:   make([]chan struct{}, n),
		landed:  make(chan int, n),
		done:    make(chan struct{}),
	}
	fo.left.Store(int32(n))
	if n == 0 {
		close(fo.landed)
		close(fo.done)
	}
	for i := range n {
		fo.ended[i] = make(chan struct{})
		go func() {
			fo.answers[i] = f(ctx, i)
			close(fo.ended[i])
			fo.landed <- i
			if fo.left.Add(-1) == 0 {
				close(fo.landed)
				close(fo.done)
			}
		}()
	}
	return fo
}

// Next returns the next answer to land, with its chain's index, in
// arrival order, blocking until one lands; ok is false once every
// answer has been returned. Answers are handed out once, so one reader
// calls Next.
func (fo *Fanout[T]) Next() (i int, answer T, ok bool) {
	if i, ok = <-fo.landed; ok {
		answer = fo.answers[i]
	}
	return i, answer, ok
}

// Ended returns a channel closed once chain i has ended.
func (fo *Fanout[T]) Ended(i int) <-chan struct{} { return fo.ended[i] }

// Done returns a channel closed once every chain has ended.
func (fo *Fanout[T]) Done() <-chan struct{} { return fo.done }

// Wait returns every answer, indexed by chain, once the last has
// landed, or ctx's error if ctx ends first.
func (fo *Fanout[T]) Wait(ctx context.Context) ([]T, error) {
	select {
	case <-fo.done:
		return fo.answers, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
