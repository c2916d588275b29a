package capacity

import (
	"errors"

	"unidrive/internal/cloud"
)

// ObserveCall is the tracker's cloud.Observer: it feeds every upload
// and delete outcome into the Tracker. The chain tells observers only
// of requests that reached the provider, so every ErrQuotaExceeded
// the cloud actually returned is observed exactly once — the
// invariant the chaos soaks reconcile — and fail-fast circuit-breaker
// rejections, which never reached the cloud, are never miscounted as
// quota evidence.
//
// Observing gates nothing: a full cloud must keep serving downloads,
// lists and lock traffic, and even its uploads are allowed through
// (the transfer engine stops PLANNING work onto full clouds; requests
// that still arrive — lock flags, metadata deltas, probes — are the
// recovery signal).
func (t *Tracker) ObserveCall(c cloud.Call) {
	switch {
	case c.Op == cloud.OpUpload && c.Err == nil:
		// Proof of space.
		t.ObserveUpload(c.Cloud, c.BytesUp)
	case c.Op == cloud.OpUpload && errors.Is(c.Err, cloud.ErrQuotaExceeded):
		// Proof of none.
		t.ObserveQuotaExceeded(c.Cloud)
	case c.Op == cloud.OpDelete && c.Err == nil:
		// A successful delete is a probe-after-free signal. A failed
		// delete freed nothing. Reads say nothing about quota.
		t.ObserveDelete(c.Cloud)
	}
}
