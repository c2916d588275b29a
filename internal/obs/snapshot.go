package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Snapshot is a deterministic point-in-time copy of a Registry:
// plain maps and sorted slices, safe to marshal, diff, and assert on.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Ops is the per-cloud operation table, sorted by (cloud, op).
	Ops []OpSnapshot `json:"ops,omitempty"`
}

// OpSnapshot is one row of the snapshotted operation table.
type OpSnapshot struct {
	Cloud string `json:"cloud"`
	Op    string `json:"op"`
	// Outcomes holds the nonzero outcome counts, keyed by
	// Outcome.String() ("ok", "transient", ...).
	Outcomes  map[string]int64  `json:"outcomes"`
	BytesUp   int64             `json:"bytesUp,omitempty"`
	BytesDown int64             `json:"bytesDown,omitempty"`
	Latency   HistogramSnapshot `json:"latency"`
}

// Snapshot copies the registry's current state. A nil registry yields
// a zero Snapshot. Writers may record concurrently; each individual
// metric is read atomically.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	for k, st := range r.ops {
		row := OpSnapshot{
			Cloud:    k.cloud,
			Op:       k.op,
			Outcomes: make(map[string]int64),
			Latency:  st.lat.snapshot(),
		}
		for o := Outcome(0); o < numOutcomes; o++ {
			if n := st.Count(o); n > 0 {
				row.Outcomes[o.String()] = n
			}
		}
		row.BytesUp, row.BytesDown = st.Bytes()
		s.Ops = append(s.Ops, row)
	}
	sort.Slice(s.Ops, func(i, j int) bool {
		if s.Ops[i].Cloud != s.Ops[j].Cloud {
			return s.Ops[i].Cloud < s.Ops[j].Cloud
		}
		return s.Ops[i].Op < s.Ops[j].Op
	})
	return s
}

// Counter returns the snapshotted value of the named counter (0 when
// absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Outcome returns the row's count for the given outcome.
func (o OpSnapshot) Outcome(out Outcome) int64 { return o.Outcomes[out.String()] }

// Calls returns the row's total call count across outcomes.
func (o OpSnapshot) Calls() int64 {
	var n int64
	for _, v := range o.Outcomes {
		n += v
	}
	return n
}

// OutcomeTotal sums the given outcome over every op of one cloud —
// the number the chaos tests reconcile against injected fault counts.
func (s Snapshot) OutcomeTotal(cloud string, out Outcome) int64 {
	var n int64
	for _, row := range s.Ops {
		if row.Cloud == cloud {
			n += row.Outcome(out)
		}
	}
	return n
}

// String renders the snapshot as an aligned text report, suitable for
// CLI dumps and test failure messages. Ordering is deterministic.
func (s Snapshot) String() string {
	var b strings.Builder
	if len(s.Ops) > 0 {
		fmt.Fprintf(&b, "%-12s %-10s %8s %6s %6s %6s %6s %12s %12s %9s %9s %9s\n",
			"CLOUD", "OP", "CALLS", "OK", "TRANS", "UNAV", "CANC", "BYTES_UP", "BYTES_DOWN", "P50_MS", "P95_MS", "P99_MS")
		for _, row := range s.Ops {
			fmt.Fprintf(&b, "%-12s %-10s %8d %6d %6d %6d %6d %12d %12d %9.2f %9.2f %9.2f\n",
				row.Cloud, row.Op, row.Calls(),
				row.Outcome(OK), row.Outcome(Transient), row.Outcome(Unavailable), row.Outcome(Canceled),
				row.BytesUp, row.BytesDown,
				row.Latency.P50*1000, row.Latency.P95*1000, row.Latency.P99*1000)
		}
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-44s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-44s %.3f\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(&b, "  %-44s n=%d mean=%.4fs p50=%.4fs p95=%.4fs p99=%.4fs\n",
				name, h.Count, h.Mean, h.P50, h.P95, h.P99)
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ServeHTTP makes a Registry an http.Handler: GET returns the current
// Snapshot as indented JSON. cloudhttp mounts it at /debug/unidrive.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(r.Snapshot())
}

// expvarMu serializes expvar publication: expvar.Publish panics on a
// duplicate name, and tests (or several servers in one process) may
// publish repeatedly.
var expvarMu sync.Mutex

// PublishExpvar exposes the registry's snapshot under the given
// expvar name (shown at /debug/vars of any server using the expvar
// handler). Publishing an already-taken name is a no-op returning
// false, so repeated publication is safe.
func PublishExpvar(name string, r *Registry) bool {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return false
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	return true
}
