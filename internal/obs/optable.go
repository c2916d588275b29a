package obs

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"unidrive/internal/cloud"
)

// Operation names used as the op dimension of the per-cloud table —
// one per Web API call of cloud.Interface.
const (
	OpUpload    = string(cloud.OpUpload)
	OpDownload  = string(cloud.OpDownload)
	OpCreateDir = string(cloud.OpCreateDir)
	OpList      = string(cloud.OpList)
	OpDelete    = string(cloud.OpDelete)
)

// Outcome classifies how one Web API call ended. The interesting
// classes for scheduling and chaos accounting are Transient,
// Unavailable and Canceled; NotFound and Quota are protocol-level
// answers from a healthy cloud, kept separate from OK so error-path
// traffic is still visible.
type Outcome uint8

// Outcome values.
const (
	OK Outcome = iota
	NotFound
	Quota
	Transient
	Unavailable
	Canceled
	Other

	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"ok", "notfound", "quota", "transient", "unavailable", "canceled", "other",
}

// String names the outcome ("ok", "transient", ...).
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "other"
}

// Classify maps a Web API call error onto its Outcome. Cancellation
// is checked first: a call aborted by its context says nothing about
// the cloud, however the abort surfaced.
func Classify(err error) Outcome {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return Canceled
	case errors.Is(err, cloud.ErrUnavailable):
		return Unavailable
	case errors.Is(err, cloud.ErrTransient):
		return Transient
	case errors.Is(err, cloud.ErrNotFound):
		return NotFound
	case errors.Is(err, cloud.ErrQuotaExceeded):
		return Quota
	default:
		return Other
	}
}

// opKey identifies one row of the per-cloud operation table.
type opKey struct {
	cloud string
	op    string
}

// OpStats is one {cloud, op} row: outcome counts, payload bytes in
// both directions, and a latency histogram over all calls (successful
// or not — a slow failure occupies a connection just like a slow
// success).
type OpStats struct {
	outcomes  [numOutcomes]atomic.Int64
	bytesUp   atomic.Int64
	bytesDown atomic.Int64
	lat       *Histogram
}

func newOpStats() *OpStats {
	return &OpStats{lat: newHistogram(DefaultLatencyBuckets)}
}

// Record adds one finished call: its outcome, payload bytes moved up
// and down, and its latency.
func (s *OpStats) Record(o Outcome, bytesUp, bytesDown int64, d time.Duration) {
	if o >= numOutcomes {
		o = Other
	}
	s.outcomes[o].Add(1)
	if bytesUp > 0 {
		s.bytesUp.Add(bytesUp)
	}
	if bytesDown > 0 {
		s.bytesDown.Add(bytesDown)
	}
	s.lat.ObserveDuration(d)
}

// Count returns how many calls ended with the given outcome.
func (s *OpStats) Count(o Outcome) int64 {
	if o >= numOutcomes {
		return 0
	}
	return s.outcomes[o].Load()
}

// Calls returns the total number of recorded calls across outcomes.
func (s *OpStats) Calls() int64 {
	var n int64
	for i := range s.outcomes {
		n += s.outcomes[i].Load()
	}
	return n
}

// Bytes returns the cumulative payload bytes recorded up and down.
func (s *OpStats) Bytes() (up, down int64) {
	return s.bytesUp.Load(), s.bytesDown.Load()
}

// Latency returns the row's latency histogram.
func (s *OpStats) Latency() *Histogram { return s.lat }
