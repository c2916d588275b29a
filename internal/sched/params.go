// Package sched implements UniDrive's data-block scheduling (paper
// §6): the reliability/security placement arithmetic, the in-channel
// bandwidth prober, the dynamic upload plan with parity-block
// over-provisioning, the fastest-cloud-first download plan, the
// placement rules every maintenance write asks (Targets, Surplus), and
// the rebalance planner for adding or removing clouds built on them.
//
// The plans are pure state machines driven by the transfer engine:
// NextBlock hands out work per cloud, Complete/Fail feed results
// back. Keeping them free of I/O makes the paper's scheduling logic
// directly unit- and property-testable.
package sched

import "fmt"

// Params captures the coding and placement configuration of paper
// §6.1. A user enrolls N clouds, splits each segment into K data
// blocks, and imposes:
//
//   - reliability: the data must survive with only Kr clouds
//     reachable, so every cloud must hold at least ⌈K/Kr⌉ blocks
//     (its "fair share");
//   - security: no Ks−1 colluding clouds may reconstruct a segment,
//     so no cloud may hold more than ⌈K/(Ks−1)⌉−1 blocks (or K when
//     Ks = 1, i.e. no security constraint).
//
// Valid parameters satisfy 1 ≤ Ks ≤ Kr ≤ N and K ≥ 1.
type Params struct {
	// N is the number of enrolled clouds.
	N int
	// K is the number of data blocks per segment (erasure-code k).
	K int
	// Kr is the minimum number of reachable clouds that must suffice
	// to recover data.
	Kr int
	// Ks is the minimum number of breached clouds that may
	// reconstruct data (Ks−1 must not).
	Ks int
}

// Validate checks 1 <= Ks <= Kr <= N, K >= 1 and feasibility. The
// paper states only the ordering constraint, but the two goals can
// still contradict each other (the fair share every cloud MUST hold
// can exceed the security cap a cloud MAY hold — e.g. N=4, K=3,
// Kr=Ks=4); such configurations are rejected here.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("sched: k = %d, need k >= 1", p.K)
	}
	if !(1 <= p.Ks && p.Ks <= p.Kr && p.Kr <= p.N) {
		return fmt.Errorf("sched: need 1 <= Ks(%d) <= Kr(%d) <= N(%d)", p.Ks, p.Kr, p.N)
	}
	if p.FairShare() > p.MaxPerCloud() {
		return fmt.Errorf("sched: infeasible: fair share %d exceeds per-cloud security cap %d",
			p.FairShare(), p.MaxPerCloud())
	}
	return nil
}

// FairShare returns ⌈K/Kr⌉ — the minimum blocks per cloud required
// for the reliability goal.
func (p Params) FairShare() int {
	return (p.K + p.Kr - 1) / p.Kr
}

// MaxPerCloud returns the most blocks any single cloud may hold under
// the security goal: ⌈K/(Ks−1)⌉−1, or K when Ks = 1.
func (p Params) MaxPerCloud() int {
	if p.Ks == 1 {
		return p.K
	}
	return (p.K+p.Ks-2)/(p.Ks-1) - 1
}

// NormalBlocks returns ⌈K/Kr⌉·N — the number of normal parity blocks
// generated in advance and scheduled deterministically.
func (p Params) NormalBlocks() int {
	return p.FairShare() * p.N
}

// MaxBlocks returns the over-provisioning ceiling
// (⌈K/(Ks−1)⌉−1)·N (or K·N when Ks = 1), additionally capped by the
// GF(2⁸) erasure-code limit n + k ≤ 256.
func (p Params) MaxBlocks() int {
	max := p.MaxPerCloud() * p.N
	if limit := 256 - p.K; max > limit {
		max = limit
	}
	return max
}

// CodeN returns the (n) of the (n, k) erasure code UniDrive
// instantiates for these parameters: the full over-provisioning
// ceiling, so extra parity blocks can be generated on demand without
// re-coding.
func (p Params) CodeN() int { return p.MaxBlocks() }
