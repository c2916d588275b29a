package cloud

import (
	"context"
	"errors"
	"math/bits"
	"slices"
	"testing"
)

// gatedChains returns n gates and a chain function whose chain i blocks
// until gate i is closed, then answers i.
func gatedChains(n int) ([]chan struct{}, func(context.Context, int) int) {
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	return gates, func(_ context.Context, i int) int {
		<-gates[i]
		return i
	}
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestFanoutNextInLandingOrder(t *testing.T) {
	gates, f := gatedChains(3)
	fo := Each(context.Background(), 3, f)
	for _, want := range []int{2, 0, 1} {
		close(gates[want])
		i, answer, ok := fo.Next()
		if !ok || i != want || answer != want {
			t.Fatalf("Next() = %d, %d, %v; want %d, %d, true", i, answer, ok, want, want)
		}
	}
	if i, _, ok := fo.Next(); ok {
		t.Fatalf("Next() after every answer = %d, true; want false", i)
	}
	if !isClosed(fo.Done()) {
		t.Error("Done not closed after every answer was read")
	}
}

func TestFanoutLandsWithoutReader(t *testing.T) {
	const n = 8
	fo := Each(context.Background(), n, func(_ context.Context, i int) int { return i * i })
	<-fo.Done()
	for i := range n {
		if !isClosed(fo.Ended(i)) {
			t.Errorf("chain %d not ended after Done", i)
		}
	}
	got, err := fo.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("answer %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestFanoutWaitAfterPartialNext(t *testing.T) {
	gates, f := gatedChains(3)
	fo := Each(context.Background(), 3, f)
	close(gates[1])
	if i, _, _ := fo.Next(); i != 1 {
		t.Fatalf("first answer from chain %d, want 1", i)
	}
	close(gates[0])
	close(gates[2])
	got, err := fo.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("Wait = %v, want [0 1 2] (indexed by chain)", got)
	}
}

func TestFanoutWaitEndsWithContext(t *testing.T) {
	gates, f := gatedChains(2)
	fo := Each(context.Background(), 2, f)
	close(gates[0])
	<-fo.Ended(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := fo.Wait(ctx); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("Wait with chain 1 hung = %v, %v; want nil, context.Canceled", got, err)
	}
	if isClosed(fo.Done()) {
		t.Fatal("Done closed while chain 1 hangs")
	}
	close(gates[1])
	<-fo.Done()
	got, err := fo.Wait(context.Background())
	if err != nil || !slices.Equal(got, []int{0, 1}) {
		t.Errorf("Wait after release = %v, %v; want [0 1], nil", got, err)
	}
}

func TestFanoutEndedPerChain(t *testing.T) {
	gates, f := gatedChains(3)
	fo := Each(context.Background(), 3, f)
	close(gates[1])
	<-fo.Ended(1)
	if isClosed(fo.Ended(0)) || isClosed(fo.Ended(2)) || isClosed(fo.Done()) {
		t.Fatal("chains 0 and 2 read as ended while gated")
	}
	close(gates[2])
	<-fo.Ended(2)
	if isClosed(fo.Ended(0)) {
		t.Fatal("chain 0 read as ended while gated")
	}
	close(gates[0])
	<-fo.Done()
}

func TestFanoutOfNone(t *testing.T) {
	fo := Each(context.Background(), 0, func(context.Context, int) int {
		t.Error("a chain ran in a fan-out of none")
		return 0
	})
	if !isClosed(fo.Done()) {
		t.Error("a fan-out of none is not done")
	}
	if _, _, ok := fo.Next(); ok {
		t.Error("Next answered in a fan-out of none")
	}
	if got, err := fo.Wait(context.Background()); err != nil || len(got) != 0 {
		t.Errorf("Wait = %v, %v; want no answers", got, err)
	}
}

func TestQuorumIsAMajority(t *testing.T) {
	for n, want := range []int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4} {
		if n == 0 {
			continue
		}
		q := Quorum(n)
		if q != want {
			t.Errorf("Quorum(%d) = %d, want %d", n, q, want)
		}
		// Every two q-subsets of n clouds share a cloud.
		var subsets []uint
		for s := uint(0); s < 1<<n; s++ {
			if bits.OnesCount(s) == q {
				subsets = append(subsets, s)
			}
		}
		for _, a := range subsets {
			for _, b := range subsets {
				if a&b == 0 {
					t.Fatalf("n=%d: quorums %b and %b share no cloud", n, a, b)
				}
			}
		}
	}
}
