package transfer

import (
	"unidrive/internal/cloud"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

// NewProbing wraps inner in a chain whose only observer is the
// in-channel prober (sched.Prober.ObserveCall). A nil clock uses the
// real clock.
func NewProbing(inner cloud.Interface, prober *sched.Prober, clock vclock.Clock) *cloud.Chain {
	return cloud.NewChain(inner, clock, nil, prober.ObserveCall)
}
