// Package unidrive's root benchmark harness: the experiment table
// (every table and figure of the paper, from internal/experiments and
// internal/trial) as one benchmark with a sub-benchmark per row, at
// the miniature sizes the shape tests use; run with -v to see the
// paper-style tables. cmd/unibench runs the same rows at full size.
package unidrive

import (
	"math/rand"
	"testing"

	"unidrive/internal/erasure"
	"unidrive/internal/experiments"
	"unidrive/internal/trial"
)

// BenchmarkExperiments runs each row of the experiment table:
// `go test -bench 'Experiments/fig8$' -v` for one of them.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range append(experiments.All, trial.Experiments...) {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, t := range e.Tables(e.Sizes.Mini, int64(i+1)) {
					b.Log("\n" + t.String())
				}
			}
		})
	}
}

// BenchmarkDataPlaneCoding is the erasure-coding hot path at the
// paper's working point (k=4, n=8, θ=4 MiB) through the pooled
// steady-state APIs the sync client uses — the headline number behind
// every upload and download. internal/erasure/bench_test.go has the
// finer-grained kernel and size-sweep benchmarks.
func BenchmarkDataPlaneCoding(b *testing.B) {
	const segSize, k, n = 4 << 20, 4, 8
	seg := make([]byte, segSize)
	rand.New(rand.NewSource(1)).Read(seg)
	coder, err := erasure.NewCoder(k, n)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		indices := make([]int, n)
		dst := make([][]byte, n)
		for i := range dst {
			indices[i] = i
			dst[i] = make([]byte, coder.ShardSize(segSize))
		}
		b.SetBytes(segSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sh := coder.Split(seg)
			coder.EncodeBlocksInto(sh, indices, dst)
			sh.Release()
		}
	})

	b.Run("decode", func(b *testing.B) {
		blocks := coder.Encode(seg)
		have := map[int][]byte{1: blocks[1], 3: blocks[3], 5: blocks[5], 7: blocks[7]}
		dst := make([]byte, k*coder.ShardSize(segSize))
		b.SetBytes(segSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coder.DecodeInto(dst, have, segSize); err != nil {
				b.Fatal(err)
			}
		}
	})
}
