package sched

import (
	"fmt"
	"sort"
	"sync"

	"unidrive/internal/obs"
)

// UploadPlan is the dynamic scheduling state machine for uploading
// one segment's coded blocks to the multi-cloud (paper §6.2).
//
// The ⌈K/Kr⌉·N normal parity blocks are assigned to clouds evenly and
// deterministically up front (basic upload scheduling). When a cloud
// finishes its fair share while others are still transferring, the
// plan hands it over-provisioned parity blocks — extra coded blocks
// beyond the normal set — so fast clouds keep working instead of
// idling; utilization becomes proportional to performance. Over-
// provisioning stops when the slowest cloud finishes its fair share
// (the plan is Reliable) or the security ceiling (MaxPerCloud /
// MaxBlocks) is reached.
//
// The transfer engine drives the plan: NextBlock(cloud) hands out the
// next block the cloud should upload, Complete and Fail report
// outcomes, and Exclude writes a cloud off — because it stopped
// responding (Dead) or ran out of quota (Full; it stays alive for
// everything except new uploads). All methods are safe for
// concurrent use.
type UploadPlan struct {
	params Params
	clouds []string

	mu sync.Mutex
	// fairQueue holds each cloud's still-unassigned normal blocks.
	fairQueue map[string][]int
	// uploaded maps block ID -> cloud for completed uploads.
	uploaded map[int]string
	// inflight maps block ID -> cloud for running uploads.
	inflight map[int]string
	// countByCloud counts uploaded+inflight blocks per cloud
	// (security accounting).
	countByCloud map[string]int
	// fairUploaded counts completed normal-share blocks per cloud.
	fairUploaded map[string]int
	// extraFree recycles the IDs of failed over-provisioned blocks.
	extraFree []int
	// nextExtra is the next fresh over-provisioned block ID.
	nextExtra int
	// excluded holds the clouds written off for this plan and why (a
	// cloud can be both Full and, later, Dead). An excluded cloud gets
	// no further work and its fair-share obligation is waived: the
	// plan can finish Reliable without it.
	excluded map[string]Reason
	// obs receives scheduling-decision counters; nil records nothing.
	obs *obs.Registry
}

// NewUploadPlan creates a plan for one segment over the given clouds.
// len(clouds) must equal params.N; params must validate.
func NewUploadPlan(params Params, clouds []string) (*UploadPlan, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(clouds) != params.N {
		return nil, fmt.Errorf("sched: %d clouds for N=%d", len(clouds), params.N)
	}
	p := &UploadPlan{
		params:       params,
		clouds:       append([]string(nil), clouds...),
		fairQueue:    make(map[string][]int, len(clouds)),
		uploaded:     make(map[int]string),
		inflight:     make(map[int]string),
		countByCloud: make(map[string]int, len(clouds)),
		fairUploaded: make(map[string]int, len(clouds)),
		nextExtra:    params.NormalBlocks(),
		excluded:     make(map[string]Reason),
	}
	// Even, deterministic assignment of the normal parity blocks:
	// block b goes to cloud b mod N, giving each cloud exactly
	// FairShare() blocks.
	for b := 0; b < params.NormalBlocks(); b++ {
		c := p.clouds[b%len(p.clouds)]
		p.fairQueue[c] = append(p.fairQueue[c], b)
	}
	return p, nil
}

// Params returns the plan's placement parameters.
func (p *UploadPlan) Params() Params { return p.params }

// SetObs directs the plan's scheduling-decision counters
// ("sched.plan.*") into reg; the transfer engine calls it with its
// own registry at batch start so decisions aggregate across plans.
func (p *UploadPlan) SetObs(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obs = reg
}

// NextBlock returns the next block the cloud should upload and marks
// it in flight. ok is false when the cloud has no work right now
// (more may appear later). extras is the driver's decision whether
// over-provisioned blocks may still be handed out: they exist to reach
// availability sooner, so the transfer engine withdraws it at the
// batch's availability instant and the plan then serves queued normal
// blocks only.
func (p *UploadPlan) NextBlock(cloudName string, extras bool) (blockID int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.excluded[cloudName] != 0 {
		return 0, false
	}
	// Normal share first.
	if q := p.fairQueue[cloudName]; len(q) > 0 {
		blockID = q[0]
		p.fairQueue[cloudName] = q[1:]
		p.inflight[blockID] = cloudName
		p.countByCloud[cloudName]++
		p.obs.Counter("sched.plan.normal_assigned").Inc()
		return blockID, true
	}
	// Over-provisioning: extras flow only to clouds that have
	// COMPLETED their own fair share (paper Fig 7 — fast clouds get
	// extras precisely because they finished early), only while some
	// live cloud's fair share is incomplete, and within the security
	// ceiling.
	if !extras || p.fairUploaded[cloudName] < p.params.FairShare() {
		return 0, false
	}
	if p.reliableLocked() {
		return 0, false
	}
	if p.countByCloud[cloudName] >= p.params.MaxPerCloud() {
		return 0, false
	}
	// Reliability beats utilization: normal blocks owed by dead clouds
	// will need live capacity when they fail over, and an extra granted
	// now would consume exactly such a slot. Hold enough spare slots
	// back for every orphaned normal block.
	if orphans := p.orphanedLocked(); orphans > 0 && p.spareLocked()-1 < orphans {
		return 0, false
	}
	if len(p.extraFree) > 0 {
		blockID = p.extraFree[0]
		p.extraFree = p.extraFree[1:]
	} else {
		if p.nextExtra >= p.params.MaxBlocks() {
			return 0, false
		}
		blockID = p.nextExtra
		p.nextExtra++
	}
	p.inflight[blockID] = cloudName
	p.countByCloud[cloudName]++
	p.obs.Counter("sched.plan.overprov_assigned").Inc()
	return blockID, true
}

// Complete records a successful upload of blockID by cloudName.
func (p *UploadPlan) Complete(cloudName string, blockID int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inflight[blockID] != cloudName {
		panic(fmt.Sprintf("sched: Complete(%s, %d) without matching NextBlock", cloudName, blockID))
	}
	delete(p.inflight, blockID)
	p.uploaded[blockID] = cloudName
	if blockID < p.params.NormalBlocks() {
		p.fairUploaded[cloudName]++
	}
}

// Fail records a failed upload. A normal-share block is requeued to
// its owning cloud (it will be retried unless the cloud is marked
// dead); an over-provisioned block ID returns to the free list. When
// the failing cloud is already excluded, its normal block is handed to
// a live cloud with spare capacity instead, so in-flight work that
// lands after Exclude is not stranded on the excluded cloud's queue.
func (p *UploadPlan) Fail(cloudName string, blockID int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inflight[blockID] != cloudName {
		panic(fmt.Sprintf("sched: Fail(%s, %d) without matching NextBlock", cloudName, blockID))
	}
	delete(p.inflight, blockID)
	p.countByCloud[cloudName]--
	p.obs.Counter("sched.plan.requeued").Inc()
	if blockID >= p.params.NormalBlocks() {
		p.extraFree = append(p.extraFree, blockID)
		return
	}
	if p.excluded[cloudName] != 0 {
		p.reassignLocked(blockID, nil)
		return
	}
	p.fairQueue[cloudName] = append(p.fairQueue[cloudName], blockID)
}

// orphanedLocked counts normal blocks still owed by excluded clouds —
// queued on one, or in flight to one (those will fail and then need a
// live home via reassignment).
func (p *UploadPlan) orphanedLocked() int {
	n := 0
	for c, q := range p.fairQueue {
		if p.excluded[c] != 0 {
			n += len(q)
		}
	}
	for b, c := range p.inflight {
		if b < p.params.NormalBlocks() && p.excluded[c] != 0 {
			n++
		}
	}
	return n
}

// spareLocked sums the non-excluded clouds' remaining capacity
// under the per-cloud security ceiling, counting queued-but-unstarted
// work as taken.
func (p *UploadPlan) spareLocked() int {
	spare := 0
	for _, c := range p.clouds {
		if p.excluded[c] != 0 {
			continue
		}
		if free := p.params.MaxPerCloud() - p.countByCloud[c] - len(p.fairQueue[c]); free > 0 {
			spare += free
		}
	}
	return spare
}

// Reason says why a cloud is excluded from a plan.
type Reason uint8

const (
	// Dead: the cloud stopped responding (failed transfers, an outage,
	// an open circuit breaker).
	Dead Reason = 1 << iota
	// Full: the cloud is out of quota. It takes no NEW upload work but
	// — unlike a dead cloud — still serves downloads, lists and lock
	// traffic, and the blocks it already holds stay in the placement.
	Full
)

// Exclude is the one mid-transfer exclusion entry point, for failover
// (Dead) and quota exhaustion (Full) alike: the cloud receives no
// further work, its fair-share obligation is waived, and its
// still-unassigned normal blocks move onto other clouds, preferring
// the given ranked order (healthiest / most space first), within each
// target's remaining per-cloud security capacity (paper §4.2: no
// cloud may hold MaxPerCloud or more blocks). It returns the number of
// blocks moved; blocks that fit nowhere are dropped from the plan —
// the erasure code's redundancy absorbs the loss, and the segment
// commits thin if at least K blocks land — and counted under
// sched.plan.failover_dropped (and sched.plan.quota_dropped for Full).
func (p *UploadPlan) Exclude(cloudName string, reason Reason, ranked []string) (moved int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.excluded[cloudName]&reason == 0 {
		if reason == Full {
			p.obs.Counter("sched.plan.full_marks").Inc()
		} else {
			p.obs.Counter("sched.plan.dead_marks").Inc()
		}
	}
	p.excluded[cloudName] |= reason
	orphans := p.fairQueue[cloudName]
	p.fairQueue[cloudName] = nil
	for _, b := range orphans {
		if p.reassignLocked(b, ranked) {
			moved++
		} else if reason == Full {
			p.obs.Counter("sched.plan.quota_dropped").Inc()
		}
	}
	if reason == Full && moved > 0 {
		p.obs.Counter("sched.plan.quota_moved").Add(int64(moved))
	}
	return moved
}

// IsFull reports whether the cloud was excluded for quota exhaustion.
func (p *UploadPlan) IsFull(cloudName string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.excluded[cloudName]&Full != 0
}

// reassignLocked places an excluded cloud's normal block onto the
// first cloud still in the plan — in ranked order, then plan order
// for clouds the ranking omitted — whose assigned-plus-queued
// block count stays under the security ceiling. Reports whether a
// home was found.
func (p *UploadPlan) reassignLocked(blockID int, ranked []string) bool {
	seen := make(map[string]bool, len(ranked))
	try := func(c string) bool {
		if seen[c] || p.excluded[c] != 0 {
			return false
		}
		seen[c] = true
		if p.countByCloud[c]+len(p.fairQueue[c]) >= p.params.MaxPerCloud() {
			return false
		}
		p.fairQueue[c] = append(p.fairQueue[c], blockID)
		p.obs.Counter("sched.plan.failover_moved").Inc()
		return true
	}
	for _, c := range ranked {
		if try(c) {
			return true
		}
	}
	for _, c := range p.clouds {
		if try(c) {
			return true
		}
	}
	p.obs.Counter("sched.plan.failover_dropped").Inc()
	return false
}

// SeedUploaded pre-marks a block as already present on cloudName —
// crash recovery adopting blocks that survived an interrupted pass —
// so the plan neither re-uploads it nor double-assigns its ID. A
// seeded normal block is removed from its deterministic owner's fair
// queue and credited to that owner's fair share (block b belongs to
// cloud b mod N, the same assignment a restarted plan recomputes); a
// seeded extra advances the over-provisioning cursor past its ID. It
// reports whether the block was adopted (false for duplicates).
func (p *UploadPlan) SeedUploaded(blockID int, cloudName string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if blockID < 0 {
		return false
	}
	if _, done := p.uploaded[blockID]; done {
		return false
	}
	if _, running := p.inflight[blockID]; running {
		return false
	}
	p.uploaded[blockID] = cloudName
	p.countByCloud[cloudName]++
	if blockID < p.params.NormalBlocks() {
		owner := p.clouds[blockID%len(p.clouds)]
		q := p.fairQueue[owner]
		for i, b := range q {
			if b == blockID {
				p.fairQueue[owner] = append(q[:i], q[i+1:]...)
				break
			}
		}
		p.fairUploaded[owner]++
	} else if blockID >= p.nextExtra {
		p.nextExtra = blockID + 1
	}
	p.obs.Counter("sched.plan.seeded").Inc()
	return true
}

// Available reports whether the segment is available to the
// multi-cloud: at least K blocks uploaded in total (paper §6.2).
func (p *UploadPlan) Available() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.uploaded) >= p.params.K
}

// reliableLocked reports whether every cloud still in the plan has
// received its fair share (the paper's reliability goal for the
// segment).
func (p *UploadPlan) reliableLocked() bool {
	fair := p.params.FairShare()
	for _, c := range p.clouds {
		if p.excluded[c] != 0 {
			continue
		}
		if p.fairUploaded[c] < fair {
			return false
		}
	}
	return true
}

// Placement returns the final block placement: block ID -> cloud, for
// recording into the segment metadata.
func (p *UploadPlan) Placement() map[int]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]string, len(p.uploaded))
	for b, c := range p.uploaded {
		out[b] = c
	}
	return out
}

// UploadedBlocks returns the sorted IDs of uploaded blocks.
func (p *UploadPlan) UploadedBlocks() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.uploaded))
	for b := range p.uploaded {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}
