package obs

import (
	"unidrive/internal/cloud"
	"unidrive/internal/vclock"
)

// ObserveCall is the op table's cloud.Observer: one finished Web API
// request becomes one recorded row entry — latency, bytes up/down and
// error class. The chain tells observers only of requests that
// reached the cloud, so one row entry is exactly one request: retries
// show up as additional entries, which is what lets tests reconcile
// observed failures against injected ones one-for-one. A nil registry
// records nothing.
func (r *Registry) ObserveCall(c cloud.Call) {
	r.Op(c.Cloud, string(c.Op)).Record(Classify(c.Err), c.BytesUp, c.BytesDown, c.Latency)
}

// Instrument wraps inner in a chain whose only observer is reg's op
// table. A nil clock uses the real clock.
func Instrument(inner cloud.Interface, reg *Registry, clock vclock.Clock) *cloud.Chain {
	return cloud.NewChain(inner, clock, nil, reg.ObserveCall)
}
