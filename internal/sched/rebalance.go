package sched

import (
	"fmt"
	"slices"
	"sort"

	"unidrive/internal/meta"
)

// Rebalance is the per-segment work list produced when the user adds
// or removes a cloud (paper §6.2, "Adding or Removing CCSs"). The
// client holds a full copy of all files, so new blocks are
// re-encoded locally and uploaded; surplus blocks are simply deleted.
type Rebalance struct {
	// Upload maps cloud -> block IDs to encode and upload there.
	Upload map[string][]int
	// Delete maps cloud -> block IDs to delete there.
	Delete map[string][]int
}

// Empty reports whether the plan contains no work.
func (r Rebalance) Empty() bool {
	for _, b := range r.Upload {
		if len(b) > 0 {
			return false
		}
	}
	for _, b := range r.Delete {
		if len(b) > 0 {
			return false
		}
	}
	return true
}

// PlanRebalance computes the block moves for one segment after the
// cloud set changed.
//
// placement is the segment's current block ID -> cloud map (from
// metadata); blocks on clouds absent from newClouds are treated as
// gone. codeN is the segment's erasure-code n — the ID space from
// which fresh blocks can be generated. p describes the new
// configuration (p.N must equal len(newClouds)).
//
// The resulting placement gives every cloud exactly its fair share:
// the Surplus rule sheds what clouds hold above it, and the Targets
// rule picks the cloud that takes each fresh block ID until every
// cloud holds it. An error is returned if the segment's code cannot
// supply enough distinct blocks, which means the segment must be
// re-encoded with a larger code (not handled here).
func PlanRebalance(placement map[int]string, newClouds []string, codeN int, p Params) (Rebalance, error) {
	if err := p.Validate(); err != nil {
		return Rebalance{}, err
	}
	if len(newClouds) != p.N {
		return Rebalance{}, fmt.Errorf("sched: %d clouds for N=%d", len(newClouds), p.N)
	}
	var held []meta.BlockLocation
	for b, c := range placement {
		if slices.Contains(newClouds, c) { // else lost with its cloud
			held = append(held, meta.BlockLocation{BlockID: b, CloudID: c})
		}
	}
	plan := Rebalance{
		Upload: make(map[string][]int),
		Delete: make(map[string][]int),
	}
	surplus := p.Surplus(held)
	for _, b := range surplus {
		plan.Delete[b.CloudID] = append(plan.Delete[b.CloudID], b.BlockID)
	}
	held = slices.DeleteFunc(held, func(b meta.BlockLocation) bool { return slices.Contains(surplus, b) })
	// No cloud holds more than its fair share now, so while the total is
	// short of the normal placement the cloud with the fewest is short:
	// it takes the lowest block ID placed nowhere.
	for id := 0; len(held) < p.NormalBlocks(); id++ {
		if id == codeN {
			return Rebalance{}, fmt.Errorf(
				"sched: segment code n=%d cannot supply enough blocks for rebalance to %d clouds",
				codeN, p.N)
		}
		if slices.ContainsFunc(held, func(b meta.BlockLocation) bool { return b.BlockID == id }) {
			continue
		}
		c := p.Targets(held, newClouds)[0]
		plan.Upload[c] = append(plan.Upload[c], id)
		held = append(held, meta.BlockLocation{BlockID: id, CloudID: c})
	}
	return plan, nil
}

// Targets is the placement rule for one more block of a segment, which
// every maintenance write asks (scrub repair and re-expansion, the
// rebalance top-up, a lock hold recording owed placements): the clouds
// of set that hold fewer than MaxPerCloud of the segment's blocks as
// held places them — the security bound — fewest first, the spread the
// reliability bound wants, then by name. Invalid parameters, the zero
// value among them, admit no cloud.
func (p Params) Targets(held []meta.BlockLocation, set []string) []string {
	if p.Validate() != nil {
		return nil
	}
	count := make(map[string]int, len(set))
	for _, b := range held {
		count[b.CloudID]++
	}
	var out []string
	for _, c := range set {
		if count[c] < p.MaxPerCloud() {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if count[out[i]] != count[out[j]] {
			return count[out[i]] < count[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Surplus is the rule for what a segment can give up: every copy in
// held above its cloud's fair share. A cloud keeps its lowest block
// IDs, the normal placement; the surplus is ordered highest block ID
// first — the over-provisioned extras — then by cloud name.
func (p Params) Surplus(held []meta.BlockLocation) []meta.BlockLocation {
	byCloud := make(map[string][]meta.BlockLocation)
	for _, b := range held {
		byCloud[b.CloudID] = append(byCloud[b.CloudID], b)
	}
	var out []meta.BlockLocation
	for _, blocks := range byCloud {
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].BlockID < blocks[j].BlockID })
		out = append(out, blocks[min(p.FairShare(), len(blocks)):]...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BlockID != out[j].BlockID {
			return out[i].BlockID > out[j].BlockID
		}
		return out[i].CloudID < out[j].CloudID
	})
	return out
}

// ApplyRebalance returns the placement after executing the plan —
// used by metadata updates and by tests to check invariants.
func ApplyRebalance(placement map[int]string, newClouds []string, plan Rebalance) map[int]string {
	isNew := make(map[string]bool, len(newClouds))
	for _, c := range newClouds {
		isNew[c] = true
	}
	out := make(map[int]string, len(placement))
	for b, c := range placement {
		if isNew[c] {
			out[b] = c
		}
	}
	for c, blocks := range plan.Delete {
		for _, b := range blocks {
			if out[b] == c {
				delete(out, b)
			}
		}
	}
	for c, blocks := range plan.Upload {
		for _, b := range blocks {
			out[b] = c
		}
	}
	return out
}
