package transfer

import (
	"unidrive/internal/capacity"
	"unidrive/internal/health"
)

// Eligibility is the one per-cloud state view, derived from the two
// trackers that each know half of it: the circuit breakers (can the
// cloud be reached at all) and the capacity tracker (can it take more
// bytes). Everything that picks clouds — the dispatcher, the
// scrubber's repair and re-expansion placement, the quorum lock — asks
// it rather than the trackers side by side. Either tracker may be
// nil (that layer off); the zero Eligibility finds every cloud
// eligible for everything.
type Eligibility struct {
	Health   *health.Tracker
	Capacity *capacity.Tracker
}

// ServesReads reports whether the cloud is worth sending a download or
// listing to: its breaker is not open. Quota plays no part — a full
// cloud serves every read.
func (el Eligibility) ServesReads(name string) bool {
	return el.Health == nil || el.Health.Admits(name)
}

// AcceptsWrites reports whether new block writes may be planned onto
// the cloud: it is reachable and not out of quota.
func (el Eligibility) AcceptsWrites(name string) bool {
	return el.ServesReads(name) && el.Capacity.Admits(name)
}

// HoldsVote reports whether the cloud counts toward the quorum lock:
// it must be reachable. A full cloud keeps its vote — flag files are
// the recovery signal the capacity tracker waits for — an open
// breaker loses it (the quorum then forms over the remaining clouds).
func (el Eligibility) HoldsVote(name string) bool { return el.ServesReads(name) }

// WriteTargets filters candidates down to clouds that accept writes
// and ranks them: healthiest first, clouds whose quota is merely being
// probed last — a probe is a last resort, not the first target.
func (el Eligibility) WriteTargets(candidates []string) []string {
	if el.Health != nil {
		candidates = el.Health.Healthiest(candidates)
	}
	return el.Capacity.WithSpace(candidates)
}
