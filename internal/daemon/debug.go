package daemon

import (
	"encoding/json"
	"net/http"

	"unidrive/internal/capacity"
	"unidrive/internal/obs"
)

// debugCloud is one cloud's row in a tenant's debug view.
type debugCloud struct {
	Name string `json:"name"`
	// Breaker is the tenant's breaker state for this cloud ("closed",
	// "open", "half-open") — per-tenant by design: breaker evidence is
	// about one tenant's account on the cloud.
	Breaker string `json:"breaker"`
	// Held is how many of the shared per-cloud connection slots this
	// tenant holds right now.
	Held int `json:"held"`
	// Capacity is the tenant's quota state for this cloud ("ok",
	// "probing", "full") — per-tenant like the breaker: quota belongs
	// to this tenant's account, not the provider.
	Capacity string `json:"capacity"`
	// QuotaRejections counts quota errors this tenant has observed
	// from the cloud.
	QuotaRejections int64 `json:"quotaRejections,omitempty"`
}

// debugTenant is one tenant's row in the fleet debug view.
type debugTenant struct {
	ID     string `json:"id"`
	Device string `json:"device"`
	// Weight is the tenant's effective fair-share weight (1 when the
	// config left it defaulted).
	Weight float64      `json:"weight"`
	Clouds []debugCloud `json:"clouds"`
	// CapacityFullClouds counts this tenant's clouds currently out of
	// quota — the fleet operator's capacity-pressure signal.
	CapacityFullClouds int `json:"capacityFullClouds"`
	// ThinCommits counts reliability commits that left a segment
	// under-replicated for capacity (core.commit.thin_segments).
	ThinCommits int64 `json:"thinCommits,omitempty"`
}

// fleetView is the /debug/unidrive document.
type fleetView struct {
	ConnsPerCloud int           `json:"connsPerCloud"`
	Tenants       []debugTenant `json:"tenants"`
	// Fleet is the cross-tenant aggregate: per-tenant registries
	// merged with exact histogram-bucket unions.
	Fleet obs.Snapshot `json:"fleet"`
}

// tenantView is the ?tenant=ID document.
type tenantView struct {
	Tenant   debugTenant  `json:"tenant"`
	Snapshot obs.Snapshot `json:"snapshot"`
}

func (d *Daemon) debugTenant(t *Tenant) debugTenant {
	dt := debugTenant{
		ID:     t.id,
		Device: t.client.Device(),
		Weight: max(t.weight, 1),
	}
	breakers, quotas := t.client.Health(), t.client.Capacity()
	for _, name := range t.names {
		cap := quotas.State(name)
		if cap == capacity.Full {
			dt.CapacityFullClouds++
		}
		dt.Clouds = append(dt.Clouds, debugCloud{
			Name:            name,
			Breaker:         breakers.Breaker(name).State().String(),
			Held:            d.fair.Held(name, t.id),
			Capacity:        cap.String(),
			QuotaRejections: quotas.Rejections(name),
		})
	}
	dt.ThinCommits = t.client.Obs().Counter("core.commit.thin_segments").Value()
	return dt
}

// ServeHTTP serves the daemon's debug endpoint, conventionally
// mounted at /debug/unidrive:
//
//	GET /debug/unidrive             — fleet view: every tenant's
//	    breaker and slot state plus the merged fleet snapshot
//	GET /debug/unidrive?tenant=ID   — one tenant's full snapshot
func (d *Daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if id := r.URL.Query().Get("tenant"); id != "" {
		t, ok := d.Tenant(id)
		if !ok {
			http.Error(w, `{"error":"unknown tenant"}`, http.StatusNotFound)
			return
		}
		writeJSON(w, tenantView{Tenant: d.debugTenant(t), Snapshot: t.client.Obs().Snapshot()})
		return
	}
	view := fleetView{
		ConnsPerCloud: d.fair.Conns(),
		Tenants:       []debugTenant{},
		Fleet:         d.FleetSnapshot(),
	}
	for _, t := range d.Tenants() {
		view.Tenants = append(view.Tenants, d.debugTenant(t))
	}
	writeJSON(w, view)
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
