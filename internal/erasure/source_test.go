package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// A Source serves exactly the blocks Encode produces, encodes each
// once (a second request returns the memoized buffer), encodes the
// fused normal blocks together on the first request for any of them,
// and refuses IDs outside the code.
func TestSourceServesEveryBlockOnce(t *testing.T) {
	c := mustCoder(t, 3, 10)
	seg := make([]byte, 5000)
	rand.New(rand.NewSource(21)).Read(seg)
	want := c.Encode(seg)

	src := NewSource(c, seg, 5)
	defer src.Release()
	first, err := src.Block(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.blocks) != 5 {
		t.Fatalf("a normal block's request encoded %d blocks, want the 5 fused ones", len(src.blocks))
	}
	for id := range want {
		got, err := src.Block(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[id]) {
			t.Fatalf("block %d differs from Encode's", id)
		}
	}
	if again, _ := src.Block(2); &again[0] != &first[0] {
		t.Fatal("block 2 was encoded twice")
	}
	for _, id := range []int{-1, 10} {
		if _, err := src.Block(id); err == nil {
			t.Fatalf("block %d outside the code was served", id)
		}
	}
}

// Without fused blocks every block is encoded on its own.
func TestSourceEncodesOnDemand(t *testing.T) {
	c := mustCoder(t, 3, 10)
	seg := make([]byte, 999)
	rand.New(rand.NewSource(22)).Read(seg)
	src := NewSource(c, seg, 0)
	defer src.Release()
	got, err := src.Block(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.blocks) != 1 || !bytes.Equal(got, c.EncodeBlocks(seg, []int{7})[0]) {
		t.Fatalf("on-demand block 7: %d blocks encoded, content match %v",
			len(src.blocks), bytes.Equal(got, c.EncodeBlocks(seg, []int{7})[0]))
	}
}
