package sched

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// DownloadPlan schedules the retrieval of one segment (paper §6.2,
// "Dynamic Scheduling for Download"): only K blocks are needed, from
// whichever clouds, normal and over-provisioned parity blocks alike.
// The engine keeps requesting the next needed block on the idle
// connection of the fastest admitted cloud (Prober ranking,
// AdmitDownload); the plan tracks which blocks are available where,
// which are done, and hands out work so that exactly K distinct blocks
// are fetched.
//
// Over-provisioning pays off here: fast clouds hold more blocks than
// their fair share, so they can supply more of the K.
type DownloadPlan struct {
	k int

	mu sync.Mutex
	// sources maps block ID -> clouds that hold it.
	sources map[int][]string
	// byCloud maps cloud -> block IDs it can still supply.
	byCloud map[string][]int
	// done tracks fetched blocks; inflight maps a running block to the
	// set of clouds currently fetching it — more than one when the
	// block has been hedged onto a spare cloud.
	done     map[int]bool
	inflight map[int]map[string]bool
	dead     map[string]bool
	// corrupt counts downloads whose content failed its checksum; the
	// engine notes them so callers can tell "unrecoverable because
	// clouds were down" from "unrecoverable because copies were bad".
	corrupt int
}

// NewDownloadPlan creates a plan to fetch any k of the blocks whose
// locations are given as block ID -> clouds holding it.
func NewDownloadPlan(k int, locations map[int][]string) (*DownloadPlan, error) {
	if k < 1 {
		return nil, fmt.Errorf("sched: k = %d", k)
	}
	if len(locations) < k {
		return nil, fmt.Errorf("sched: only %d block locations for k=%d", len(locations), k)
	}
	p := &DownloadPlan{
		k:        k,
		sources:  make(map[int][]string, len(locations)),
		byCloud:  make(map[string][]int),
		done:     make(map[int]bool),
		inflight: make(map[int]map[string]bool),
		dead:     make(map[string]bool),
	}
	for b, clouds := range locations {
		p.sources[b] = append([]string(nil), clouds...)
		for _, c := range clouds {
			p.byCloud[c] = append(p.byCloud[c], b)
		}
	}
	return p, nil
}

// NextBlock returns a block for the cloud to download and marks it in
// flight. It never hands out more than K total (done+inflight)
// blocks: fetching more would waste bandwidth.
func (p *DownloadPlan) NextBlock(cloudName string) (blockID int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead[cloudName] || len(p.done)+len(p.inflight) >= p.k || len(p.done) >= p.k {
		return 0, false
	}
	// Prefer the block with the fewest remaining sources so rare
	// blocks are not starved behind widely replicated ones.
	best, bestSources := -1, int(^uint(0)>>1)
	for _, b := range p.byCloud[cloudName] {
		if p.done[b] {
			continue
		}
		if len(p.inflight[b]) > 0 {
			continue
		}
		if n := p.liveSourcesLocked(b); n < bestSources {
			best, bestSources = b, n
		}
	}
	if best < 0 {
		return 0, false
	}
	p.inflight[best] = map[string]bool{cloudName: true}
	return best, true
}

// Hedge registers a duplicate fetch of an in-flight block by the
// spare cloud. It refuses (returns false) when the block is not in
// flight, already done, the spare is dead, does not hold the block,
// or is already fetching it — so at most one extra request per
// (block, cloud) pair ever exists.
func (p *DownloadPlan) Hedge(blockID int, spare string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.spareLocked(blockID, spare) {
		return false
	}
	p.inflight[blockID][spare] = true
	return true
}

// spareLocked reports whether the cloud could duplicate the running
// fetch of the block: it holds the block, is live and is not fetching
// it already.
func (p *DownloadPlan) spareLocked(blockID int, cloudName string) bool {
	running := p.inflight[blockID]
	return len(running) > 0 && !p.done[blockID] && !p.dead[cloudName] &&
		!running[cloudName] && slices.Contains(p.sources[blockID], cloudName)
}

func (p *DownloadPlan) liveSourcesLocked(b int) int {
	n := 0
	for _, c := range p.sources[b] {
		if !p.dead[c] {
			n++
		}
	}
	return n
}

// Complete records a successful block download by any of the clouds
// currently fetching it (the primary or a hedge). The whole in-flight
// set is cleared: the engine cancels and absorbs the losing requests
// itself without further plan calls.
func (p *DownloadPlan) Complete(cloudName string, blockID int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.inflight[blockID][cloudName] {
		panic(fmt.Sprintf("sched: Complete(%s, %d) without matching NextBlock", cloudName, blockID))
	}
	delete(p.inflight, blockID)
	p.done[blockID] = true
}

// Fail records a failed download attempt by one cloud; the block
// becomes assignable again once no other cloud is still fetching it
// (a hedged duplicate may still be running).
func (p *DownloadPlan) Fail(cloudName string, blockID int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.inflight[blockID][cloudName] {
		panic(fmt.Sprintf("sched: Fail(%s, %d) without matching NextBlock", cloudName, blockID))
	}
	delete(p.inflight[blockID], cloudName)
	if len(p.inflight[blockID]) == 0 {
		delete(p.inflight, blockID)
	}
	// Remove this cloud as a source for the block: it just proved
	// unable to supply it.
	kept := p.byCloud[cloudName][:0]
	for _, b := range p.byCloud[cloudName] {
		if b != blockID {
			kept = append(kept, b)
		}
	}
	p.byCloud[cloudName] = kept
	srcKept := p.sources[blockID][:0]
	for _, c := range p.sources[blockID] {
		if c != cloudName {
			srcKept = append(srcKept, c)
		}
	}
	p.sources[blockID] = srcKept
}

// NoteCorrupt records that one download attempt returned bytes
// failing their integrity check. Call it alongside Fail — Fail does
// the scheduling bookkeeping (the cloud proved unable to supply the
// block), NoteCorrupt keeps the cause observable.
func (p *DownloadPlan) NoteCorrupt() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.corrupt++
}

// CorruptCount returns how many downloads failed their integrity
// check during this plan.
func (p *DownloadPlan) CorruptCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.corrupt
}

// MarkDead excludes a cloud from the plan.
func (p *DownloadPlan) MarkDead(cloudName string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead[cloudName] = true
}

// Done reports whether K blocks have been fetched.
func (p *DownloadPlan) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.done) >= p.k
}

// Unassigned returns how many of the K blocks the plan has not yet
// handed out: neither fetched nor in flight (NextBlock keeps the two
// at or below K together).
func (p *DownloadPlan) Unassigned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.k - len(p.done) - len(p.inflight)
}

// Requires reports that the plan cannot reach K without another block
// from cloudName: the blocks fetched, in flight, or still assignable
// from other live clouds fall short. Such a cloud must be used however
// slow it is.
func (p *DownloadPlan) Requires(cloudName string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead[cloudName] || len(p.done) >= p.k {
		return false
	}
	reachable := len(p.done) + len(p.inflight)
	for b, clouds := range p.sources {
		if p.done[b] || len(p.inflight[b]) > 0 {
			continue
		}
		for _, c := range clouds {
			if c != cloudName && !p.dead[c] {
				reachable++
				break
			}
		}
	}
	return reachable < p.k
}

// AdmitDownload is the download dispatcher's source-selection rule: a
// block of blockBytes goes to cloudName, which has a connection idle
// now, only if its estimated finish there is no later than the time
// the faster ones among others — the live clouds that could supply
// the plan's block instead, each with conns connections — need to
// drain the unassigned bytes the batch has not handed out yet, plus
// one block on the fastest of them. Holders slower than cloudName set
// no bar: whatever refuses it refuses them too, so they will not help
// drain. Evaluated per block, the bar falls as the batch drains: a
// slow cloud contributes while there is more work than the fast ones
// can absorb and drops out of the end-game by itself, where a block
// parked on it would be the straggler the whole batch waits for. A
// cloud the prober has no estimate for is always admitted (its first
// transfer is the probe), and so is one the plan Requires.
func AdmitDownload(p *Prober, plan *DownloadPlan, cloudName string, others []string,
	conns int, blockBytes, unassigned int64) bool {

	if plan.Requires(cloudName) {
		return true
	}
	mine, ok := p.Estimate(cloudName, Down, blockBytes)
	if !ok {
		return true
	}
	var rate float64 // bytes/second the faster holders sustain on blocks this size
	fastest := mine
	for _, o := range others {
		est, ok := p.Estimate(o, Down, blockBytes)
		if !ok || est > mine {
			continue
		}
		if est <= 0 {
			est = time.Nanosecond
		}
		rate += float64(conns) * float64(blockBytes) / est.Seconds()
		if est < fastest {
			fastest = est
		}
	}
	if fastest == mine {
		return true // nobody faster holds work
	}
	drain := 0.0
	if rate > 0 {
		drain = float64(unassigned) / rate
	}
	return mine.Seconds() <= drain+fastest.Seconds()
}

// DuplicateDownload is the download dispatcher's duplicate rule, the
// other half of AdmitDownload's finish-time comparison. A fetch of the
// plan's block of blockBytes that has run on primary for elapsed has
// E(primary) − elapsed left while within its estimate; once past it,
// it is taken to need as long again as it has overrun, elapsed −
// E(primary). The spare is the cloud of idle with the lowest estimate
// that holds the block, is live and is not fetching it; it gets the
// duplicate if its own estimate is below the time left. Otherwise wait
// is how much longer the fetch must run before that spare qualifies,
// zero if none ever will. A cloud the prober has never observed is
// never the spare, and a fetch on one has no estimate to be late
// against: neither makes a duplicate.
func DuplicateDownload(p *Prober, plan *DownloadPlan, blockID int, primary string,
	idle []string, blockBytes int64, elapsed time.Duration) (spare string, wait time.Duration) {

	mine, ok := p.Estimate(primary, Down, blockBytes)
	if !ok {
		return "", 0
	}
	best := time.Duration(-1)
	plan.mu.Lock()
	for _, c := range idle {
		if !plan.spareLocked(blockID, c) {
			continue
		}
		if est, ok := p.Estimate(c, Down, blockBytes); ok && (best < 0 || est < best) {
			spare, best = c, est
		}
	}
	plan.mu.Unlock()
	left := mine - elapsed
	switch {
	case best < 0:
		return "", 0
	case best < left || best < -left:
		return spare, 0
	}
	// The first instant past an overrun of the spare's own estimate.
	return "", mine + best - elapsed + time.Nanosecond
}

// HasWork reports whether cloudName holds at least one needed block
// that is neither done nor in flight. Unlike NextBlock it ignores the
// K-in-flight budget and does not mutate the plan — the dispatcher
// uses it to decide which clouds could still contribute.
func (p *DownloadPlan) HasWork(cloudName string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead[cloudName] || len(p.done) >= p.k {
		return false
	}
	for _, b := range p.byCloud[cloudName] {
		if p.done[b] {
			continue
		}
		if len(p.inflight[b]) > 0 {
			continue
		}
		return true
	}
	return false
}
