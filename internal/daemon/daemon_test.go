package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/core"
	"unidrive/internal/daemon"
	"unidrive/internal/health"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
	"unidrive/internal/vclock"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func randContent(seed int64, n int) string {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return string(b)
}

func writeFile(t *testing.T, f localfs.Folder, path, content string) {
	t.Helper()
	if err := f.WriteFile(path, []byte(content), time.Now()); err != nil {
		t.Fatal(err)
	}
}

// tenantRig is one hosted tenant plus direct handles on its cloud
// accounts: the tenant's own five stores (every tenant has its own
// accounts on the same five providers c0..c4 — same NAMES, so they
// contend for the shared per-provider connection budget, but disjoint
// state) and the Flaky fault injectors wrapped around them.
type tenantRig struct {
	id     string
	stores []*cloudsim.Store
	flaky  []*cloudsim.Flaky
	folder *localfs.Mem
	tenant *daemon.Tenant
	clk    vclock.Clock
}

func addTenant(t *testing.T, d *daemon.Daemon, id string, prob float64, seed int64, clk vclock.Clock, weight float64) *tenantRig {
	t.Helper()
	r := &tenantRig{id: id, folder: localfs.NewMem(), clk: clk}
	var clouds []cloud.Interface
	for i := 0; i < 5; i++ {
		st := cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)
		fl := cloudsim.NewFlaky(cloudsim.NewDirect(st), prob, seed*100+int64(i))
		r.stores = append(r.stores, st)
		r.flaky = append(r.flaky, fl)
		clouds = append(clouds, fl)
	}
	tn, err := d.AddTenant(daemon.TenantConfig{
		ID:     id,
		Weight: weight,
		Clouds: clouds,
		Folder: r.folder,
		Core: core.Config{
			Device:     id + "-dev",
			Passphrase: "pass-" + id,
			Theta:      4096,
			LockExpiry: 2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.tenant = tn
	return r
}

// peer builds a second device of the same tenant user: a standalone
// client over fault-free connectors to the SAME stores, with the same
// passphrase — the convergence oracle.
func (r *tenantRig) peer(t *testing.T) (*core.Client, *localfs.Mem) {
	t.Helper()
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	folder := localfs.NewMem()
	c, err := core.New(clouds, folder, core.Config{
		Device:     r.id + "-peer",
		Passphrase: "pass-" + r.id,
		Theta:      4096,
		LockExpiry: 2 * time.Second,
		Clock:      r.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, folder
}

// syncTenant retries the tenant's pass while fault injection defeats
// it; every attempt's faults still land in the tenant's op table. The
// pass that succeeds has its hold's tail joined.
func syncTenant(t *testing.T, d *daemon.Daemon, id string) core.SyncReport {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 25; attempt++ {
		tn, _ := d.Tenant(id)
		rep, err := tn.Client().SyncOnce(ctxT(t))
		if err == nil {
			settle(t, tn.Client())
			return rep
		}
		lastErr = err
	}
	t.Fatalf("tenant %s: sync never succeeded: %v", id, lastErr)
	return core.SyncReport{}
}

// syncAll runs one sync pass for every tenant concurrently — where
// the fair scheduler earns its keep — joins each pass's hold tail
// (SaveState), and returns per-tenant reports plus each failing
// tenant's error (nil when none failed).
func syncAll(t *testing.T, rigs ...*tenantRig) (map[string]core.SyncReport, map[string]error) {
	t.Helper()
	reports := make(map[string]core.SyncReport)
	errs := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, r := range rigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := r.tenant.Client().SyncOnce(ctxT(t))
			if err == nil {
				err = r.tenant.Client().SaveState()
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[r.id] = err
				return
			}
			reports[r.id] = rep
		}()
	}
	wg.Wait()
	if len(errs) == 0 {
		errs = nil
	}
	return reports, errs
}

// settle joins the client's last lock hold's tail — its release and
// block deletes run on after the pass returns — so the ledgers and the
// shared scheduler are read with none of its requests in flight.
func settle(t *testing.T, c *core.Client) {
	t.Helper()
	if err := c.SaveState(); err != nil {
		t.Fatalf("%s: SaveState: %v", c.Device(), err)
	}
}

// syncClientTo drives a standalone client until its committed
// metadata reaches the version (fault-free connectors still need
// multiple passes occasionally — a pass that raced a commit applies
// on the next one).
func syncClientTo(t *testing.T, c *core.Client, version int64) {
	t.Helper()
	for attempt := 0; attempt < 25; attempt++ {
		if _, err := c.SyncOnce(ctxT(t)); err != nil {
			continue
		}
		if c.Image().Version >= version {
			return
		}
	}
	t.Fatalf("%s: never reached version %d (at %d)", c.Device(), version, c.Image().Version)
}

// TestDaemonMultiTenantConvergence: three tenants sync concurrently
// through one daemon — same provider names, same file PATHS, but
// different users. Every tenant's peer device must receive exactly
// that tenant's bytes: same-named files must not bleed across
// tenants, and one tenant's secret file must never appear on another
// tenant's devices.
func TestDaemonMultiTenantConvergence(t *testing.T) {
	clk := vclock.NewScaled(50)
	d := daemon.New(daemon.Config{ConnsPerCloud: 4, Clock: clk, Obs: obs.NewRegistry()})
	ids := []string{"alice", "bob", "carol"}
	rigs := make(map[string]*tenantRig)
	content := make(map[string]string)
	for i, id := range ids {
		rigs[id] = addTenant(t, d, id, 0, int64(1000+i), clk, 0)
		// Deliberately identical path with per-tenant content: the
		// sharpest cross-tenant leakage probe.
		content[id] = randContent(int64(10+i), 9_000)
		writeFile(t, rigs[id].folder, "common/report.bin", content[id])
		writeFile(t, rigs[id].folder, "secret-"+id+".txt", "only for "+id)
	}

	reports, errs := syncAll(t, rigs["alice"], rigs["bob"], rigs["carol"])
	if errs != nil {
		t.Fatalf("SyncAll errors: %v", errs)
	}
	if len(reports) != len(ids) {
		t.Fatalf("got %d reports, want %d", len(reports), len(ids))
	}

	for _, id := range ids {
		peer, pf := rigs[id].peer(t)
		syncClientTo(t, peer, reports[id].Version)
		got, err := pf.ReadFile("common/report.bin")
		if err != nil {
			t.Fatalf("%s peer missing common/report.bin: %v", id, err)
		}
		if !bytes.Equal(got, []byte(content[id])) {
			t.Errorf("%s peer got another tenant's bytes for common/report.bin", id)
		}
		if _, err := pf.ReadFile("secret-" + id + ".txt"); err != nil {
			t.Errorf("%s peer missing its own secret file: %v", id, err)
		}
		for _, other := range ids {
			if other == id {
				continue
			}
			if _, err := pf.ReadFile("secret-" + other + ".txt"); !errors.Is(err, localfs.ErrNotExist) {
				t.Errorf("%s peer can see %s's secret file (err=%v) — cross-tenant metadata leak", id, other, err)
			}
		}
	}

	// All shared connection slots returned.
	for i := 0; i < 5; i++ {
		for _, id := range ids {
			if h := d.Fair().Held(fmt.Sprintf("c%d", i), id); h != 0 {
				t.Errorf("%s still holds %d slots on c%d after SyncAll", id, h, i)
			}
		}
	}
}

// TestDaemonBreakerIsolation: tenant A's account on provider c1 goes
// dark and A's breaker opens. The breaker is evidence about A's
// account only — B's calls to its own c1 account must keep flowing:
// zero rejections, zero unavailable outcomes, bytes still landing.
func TestDaemonBreakerIsolation(t *testing.T) {
	clk := vclock.NewScaled(50)
	d := daemon.New(daemon.Config{ConnsPerCloud: 4, Clock: clk})
	a := addTenant(t, d, "A", 0, 21, clk, 0)
	b := addTenant(t, d, "B", 0, 22, clk, 0)

	// Warm both tenants with all clouds healthy.
	writeFile(t, a.folder, "warm.txt", "a")
	writeFile(t, b.folder, "warm.txt", "b")
	if _, errs := syncAll(t, a, b); errs != nil {
		t.Fatalf("warm sync: %v", errs)
	}

	// A's c1 account dies and stays dead.
	a.flaky[1].SetDown(true)
	writeFile(t, a.folder, "during.bin", randContent(5, 12_000))
	syncTenant(t, d, "A")
	// Another pass while the breaker is open exercises the reject path.
	writeFile(t, a.folder, "more.bin", randContent(6, 8_000))
	syncTenant(t, d, "A")

	if st := a.tenant.Client().Health().Breaker("c1").State(); st == health.Closed {
		t.Fatalf("A's c1 breaker = %v, want tripped", st)
	}
	sa := a.tenant.Client().Obs().Snapshot()
	if sa.Counter("health.breaker.c1.opened") < 1 {
		t.Fatal("A's c1 breaker never recorded an open transition")
	}
	if sa.Counter("health.breaker.c1.rejected") == 0 {
		t.Error("A's open breaker never rejected a call — reject path unexercised")
	}

	// B syncs while A's breaker is open: not one of B's calls may be
	// rejected or fail, and B's c1 account keeps receiving data.
	c1Before := b.stores[1].FileCount()
	writeFile(t, b.folder, "during.bin", randContent(7, 12_000))
	if _, err := b.tenant.Client().SyncOnce(ctxT(t)); err != nil {
		t.Fatalf("B's sync failed while A's breaker was open: %v", err)
	}
	if st := b.tenant.Client().Health().Breaker("c1").State(); st != health.Closed {
		t.Errorf("B's c1 breaker = %v, want closed — breaker state leaked across tenants", st)
	}
	sb := b.tenant.Client().Obs().Snapshot()
	if n := sb.Counter("health.breaker.c1.rejected"); n != 0 {
		t.Errorf("B suffered %d breaker rejections on c1 from A's outage", n)
	}
	if n := sb.OutcomeTotal("c1", obs.Unavailable); n != 0 {
		t.Errorf("B observed %d unavailable outcomes on c1 without an outage on B's account", n)
	}
	if b.stores[1].FileCount() <= c1Before {
		t.Error("B's c1 account received nothing while A's breaker was open")
	}
}

// TestDaemonChaosSoak is the multi-tenant resilience soak: four
// tenants sync under transient fault injection while each tenant's c2
// account dies mid-transfer and revives. Every tenant must converge
// byte-identically on a peer device, and every tenant's fault ledger
// must reconcile EXACTLY — each injected fault appears in that
// tenant's op table and in no other's, which a single shared registry
// could never establish.
func TestDaemonChaosSoak(t *testing.T) {
	clk := vclock.NewScaled(50)
	d := daemon.New(daemon.Config{ConnsPerCloud: 5, Clock: clk, Obs: obs.NewRegistry()})
	ids := []string{"t0", "t1", "t2", "t3"}
	rigs := make(map[string]*tenantRig)
	for i, id := range ids {
		rigs[id] = addTenant(t, d, id, 0.12, int64(3000+i*7), clk, 0)
	}

	// Round 1: every tenant commits a few files under transient faults.
	want := make(map[string]map[string]string)
	for i, id := range ids {
		want[id] = map[string]string{
			"docs/spec.txt":         randContent(int64(100+i), 15_000),
			"secret-" + id + ".bin": randContent(int64(200+i), 6_000),
		}
		for p, c := range want[id] {
			writeFile(t, rigs[id].folder, p, c)
		}
	}
	round1 := make(map[string]core.SyncReport)
	for _, id := range ids {
		round1[id] = syncTenant(t, d, id)
	}

	// Each tenant's c2 account dies a few requests into the next sync
	// — mid-transfer — and revives after a window.
	for _, id := range ids {
		fl := rigs[id].flaky[2]
		fl.AddOutageWindow(fl.Ops()+3, fl.Ops()+20)
	}

	// Round 2: mutate, add, delete per tenant.
	for i, id := range ids {
		want[id]["docs/spec.txt"] = randContent(int64(300+i), 17_000)
		writeFile(t, rigs[id].folder, "docs/spec.txt", want[id]["docs/spec.txt"])
		want[id]["extra.dat"] = randContent(int64(400+i), 9_000)
		writeFile(t, rigs[id].folder, "extra.dat", want[id]["extra.dat"])
	}
	round2 := make(map[string]core.SyncReport)
	for _, id := range ids {
		round2[id] = syncTenant(t, d, id)
	}

	// At least one tenant's outage window must have hit a transfer.
	outageHits := 0
	for _, id := range ids {
		if _, outage := rigs[id].flaky[2].InjectedFaults(); outage.Total() > 0 {
			outageHits++
		}
	}
	if outageHits == 0 {
		t.Fatal("no outage window ever hit a transfer — the soak tested nothing")
	}

	for _, id := range ids {
		// Convergence: a fresh peer device of this tenant reproduces
		// the folder byte for byte.
		peer, pf := rigs[id].peer(t)
		syncClientTo(t, peer, round2[id].Version)
		for p, content := range want[id] {
			got, err := pf.ReadFile(p)
			if err != nil {
				t.Fatalf("%s peer missing %s: %v", id, p, err)
			}
			if !bytes.Equal(got, []byte(content)) {
				t.Errorf("%s: %s differs on peer (%d vs %d bytes)", id, p, len(got), len(content))
			}
		}

		// Exact fault reconciliation, per tenant per cloud: observed
		// error outcomes == injected faults, one for one.
		s := rigs[id].tenant.Client().Obs().Snapshot()
		for i, fl := range rigs[id].flaky {
			name := rigs[id].stores[i].Name()
			transient, outage := fl.InjectedFaults()
			if got, wantN := s.OutcomeTotal(name, obs.Transient), int64(transient.Total()); got != wantN {
				t.Errorf("%s/%s: observed %d transient outcomes, injected %d", id, name, got, wantN)
			}
			if got, wantN := s.OutcomeTotal(name, obs.Unavailable), int64(outage.Total()); got != wantN {
				t.Errorf("%s/%s: observed %d unavailable outcomes, injected %d", id, name, got, wantN)
			}
		}
	}

	// Zero cross-tenant leakage, fleet-wide: the merged fleet ledger
	// equals the sum of the per-tenant ledgers (nothing double-counted,
	// nothing lost), and the scheduler is fully drained.
	fleet := d.FleetSnapshot()
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("c%d", i)
		var sum int64
		for _, id := range ids {
			sum += rigs[id].tenant.Client().Obs().Snapshot().OutcomeTotal(name, obs.Transient)
		}
		if got := fleet.OutcomeTotal(name, obs.Transient); got != sum {
			t.Errorf("fleet transient total on %s = %d, tenant sum = %d", name, got, sum)
		}
		for _, id := range ids {
			if h := d.Fair().Held(name, id); h != 0 {
				t.Errorf("%s still holds %d slots on %s after the soak", id, h, name)
			}
		}
	}
}

// TestDaemonRunHostsEveryTenant: the daemon's Run hosts one event
// loop per tenant registered before it, each syncing its own folder,
// and returns once cancelled.
func TestDaemonRunHostsEveryTenant(t *testing.T) {
	clk := vclock.NewScaled(200)
	d := daemon.New(daemon.Config{ConnsPerCloud: 4, Clock: clk})
	a := addTenant(t, d, "A", 0, 51, clk, 0)
	b := addTenant(t, d, "B", 0, 52, clk, 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Run(ctx, func(id string, err error) { t.Logf("tenant %s: %v", id, err) })
	}()

	waitVersion := func(r *tenantRig, v int64) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if r.tenant.Client().Image().Version >= v {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("tenant %s never reached version %d (at %d)",
			r.id, v, r.tenant.Client().Image().Version)
	}

	writeFile(t, a.folder, "live.txt", "written while the daemon runs")
	writeFile(t, b.folder, "late.txt", "written while the daemon runs")
	waitVersion(a, 1)
	waitVersion(b, 1)

	cancel()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestDaemonDebugEndpoint exercises /debug/unidrive: the fleet view
// aggregates per-tenant ledgers exactly; the tenant view returns one
// tenant's snapshot; unknown tenants 404.
func TestDaemonDebugEndpoint(t *testing.T) {
	clk := vclock.NewScaled(50)
	d := daemon.New(daemon.Config{ConnsPerCloud: 4, Clock: clk, Obs: obs.NewRegistry()})
	a := addTenant(t, d, "A", 0, 61, clk, 2)
	b := addTenant(t, d, "B", 0, 62, clk, 0)
	writeFile(t, a.folder, "a.txt", randContent(1, 5_000))
	writeFile(t, b.folder, "b.txt", randContent(2, 5_000))
	if _, errs := syncAll(t, a, b); errs != nil {
		t.Fatalf("SyncAll: %v", errs)
	}

	// Fleet aggregate equals the per-tenant sum.
	fleet := d.FleetSnapshot()
	for _, name := range []string{"c0", "c4"} {
		sum := a.tenant.Client().Obs().Snapshot().OutcomeTotal(name, obs.OK) +
			b.tenant.Client().Obs().Snapshot().OutcomeTotal(name, obs.OK)
		if got := fleet.OutcomeTotal(name, obs.OK); got != sum || got == 0 {
			t.Errorf("fleet OK total on %s = %d, tenant sum = %d (want equal, nonzero)", name, got, sum)
		}
	}

	get := func(url string) (*httptest.ResponseRecorder, map[string]any) {
		t.Helper()
		rec := httptest.NewRecorder()
		d.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var body map[string]any
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("GET %s: bad JSON: %v", url, err)
			}
		}
		return rec, body
	}

	rec, body := get("/debug/unidrive")
	if rec.Code != 200 {
		t.Fatalf("fleet view status %d", rec.Code)
	}
	tenants, _ := body["tenants"].([]any)
	if len(tenants) != 2 {
		t.Fatalf("fleet view lists %d tenants, want 2", len(tenants))
	}
	first, _ := tenants[0].(map[string]any)
	if first["id"] != "A" {
		t.Errorf("fleet view tenant[0] = %v, want A (sorted)", first["id"])
	}
	if w, _ := first["weight"].(float64); w != 2 {
		t.Errorf("tenant A weight = %v, want 2", first["weight"])
	}
	if clouds, _ := first["clouds"].([]any); len(clouds) != 5 {
		t.Errorf("tenant A lists %d clouds, want 5", len(clouds))
	}
	if _, ok := body["fleet"]; !ok {
		t.Error("fleet view missing the merged fleet snapshot")
	}

	rec, body = get("/debug/unidrive?tenant=B")
	if rec.Code != 200 {
		t.Fatalf("tenant view status %d", rec.Code)
	}
	if tn, _ := body["tenant"].(map[string]any); tn["id"] != "B" {
		t.Errorf("tenant view id = %v, want B", tn["id"])
	}
	if _, ok := body["snapshot"]; !ok {
		t.Error("tenant view missing the snapshot")
	}

	if rec, _ := get("/debug/unidrive?tenant=nope"); rec.Code != 404 {
		t.Errorf("unknown tenant status %d, want 404", rec.Code)
	}
}

// TestDaemonAddTenantErrors pins the registration failure modes.
func TestDaemonAddTenantErrors(t *testing.T) {
	clk := vclock.NewScaled(50)
	d := daemon.New(daemon.Config{Clock: clk})
	if _, err := d.AddTenant(daemon.TenantConfig{}); err == nil {
		t.Error("empty tenant ID accepted")
	}
	addTenant(t, d, "dup", 0, 71, clk, 0)
	st := cloudsim.NewStore("c0", 0)
	_, err := d.AddTenant(daemon.TenantConfig{
		ID:     "dup",
		Clouds: []cloud.Interface{cloudsim.NewDirect(st)},
		Folder: localfs.NewMem(),
		Core:   core.Config{Passphrase: "x"},
	})
	if err == nil {
		t.Error("duplicate tenant ID accepted")
	}
	// A broken core config (no passphrase) surfaces the core error.
	if _, err := d.AddTenant(daemon.TenantConfig{
		ID:     "broken",
		Clouds: []cloud.Interface{cloudsim.NewDirect(st)},
		Folder: localfs.NewMem(),
	}); err == nil {
		t.Error("tenant without a passphrase accepted")
	}
}

// TestDaemonCapacityRollup pins per-tenant capacity isolation and the
// debug rollup: tenant A exhausting its c1 quota marks A's tracker
// full and surfaces in A's fleet-view row, while tenant B's account on
// the same provider name stays untouched.
func TestDaemonCapacityRollup(t *testing.T) {
	clk := vclock.NewScaled(50)
	d := daemon.New(daemon.Config{ConnsPerCloud: 4, Clock: clk, Obs: obs.NewRegistry()})
	a := addTenant(t, d, "A", 0, 71, clk, 0)
	b := addTenant(t, d, "B", 0, 72, clk, 0)
	a.flaky[1].SetQuotaFull(true)
	writeFile(t, a.folder, "a.txt", randContent(3, 20_000))
	writeFile(t, b.folder, "b.txt", randContent(4, 20_000))
	if _, errs := syncAll(t, a, b); errs != nil {
		t.Fatalf("SyncAll: %v", errs)
	}

	if got := a.tenant.Client().Capacity().State("c1"); got.String() != "full" {
		t.Fatalf("tenant A c1 capacity = %v, want full", got)
	}
	if got := b.tenant.Client().Capacity().State("c1"); got.String() != "ok" {
		t.Fatalf("tenant B c1 capacity = %v, want ok — quota bled across tenants", got)
	}

	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/unidrive", nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	tenants, _ := body["tenants"].([]any)
	if len(tenants) != 2 {
		t.Fatalf("fleet view lists %d tenants, want 2", len(tenants))
	}
	rowA, _ := tenants[0].(map[string]any)
	rowB, _ := tenants[1].(map[string]any)
	if got, _ := rowA["capacityFullClouds"].(float64); got != 1 {
		t.Errorf("tenant A capacityFullClouds = %v, want 1", rowA["capacityFullClouds"])
	}
	if got, _ := rowB["capacityFullClouds"].(float64); got != 0 {
		t.Errorf("tenant B capacityFullClouds = %v, want 0", rowB["capacityFullClouds"])
	}
	cloudsA, _ := rowA["clouds"].([]any)
	c1, _ := cloudsA[1].(map[string]any)
	if c1["capacity"] != "full" {
		t.Errorf("tenant A c1 row capacity = %v, want full", c1["capacity"])
	}
	if rej, _ := c1["quotaRejections"].(float64); rej < 1 {
		t.Errorf("tenant A c1 quotaRejections = %v, want >= 1", c1["quotaRejections"])
	}
}

// userFiles reads a folder's synced files: everything outside the
// client's private state directory.
func userFiles(t *testing.T, f *localfs.Mem) map[string]string {
	t.Helper()
	infos, err := f.ListAll()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, fi := range infos {
		if strings.HasPrefix(fi.Path, localfs.StatePrefix) {
			continue
		}
		data, err := f.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		out[fi.Path] = string(data)
	}
	return out
}

// TestDaemonScheduledScrubRepairsBesideTheLoops: on a manual clock,
// tenants edit under Run while each tenant's scheduled repair scrub —
// its own goroutine beside the tenant's sync loop — restores a block a
// provider lost. The repair commit and the loop's passes take turns on
// the client's one writer, so the folders converge byte-identical, the
// placement is whole again and no error reaches onError.
func TestDaemonScheduledScrubRepairsBesideTheLoops(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
	d := daemon.New(daemon.Config{ConnsPerCloud: 4, Clock: clk, ScrubInterval: time.Minute, ScrubRepair: true})
	tenants := []*tenantRig{addTenant(t, d, "A", 0, 71, clk, 0), addTenant(t, d, "B", 0, 72, clk, 0)}
	for i, r := range tenants {
		writeFile(t, r.folder, "first.bin", randContent(int64(73+i), 12_000))
	}
	var mu sync.Mutex
	var errs []string
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Run(ctx, func(id string, err error) {
			mu.Lock()
			defer mu.Unlock()
			errs = append(errs, id+": "+err.Error())
		})
	}()
	stop := func() {
		cancel()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatal("Run did not return after cancellation")
		}
	}
	defer stop()
	// until waits for cond, moving the clock on by step each turn.
	until := func(what string, step time.Duration, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("never: %s", what)
			}
			clk.Advance(step)
		}
	}
	has := func(r *tenantRig, path string) bool { return r.tenant.Client().Image().Lookup(path).Current() != nil }
	until("the first passes commit", 0, func() bool { return has(tenants[0], "first.bin") && has(tenants[1], "first.bin") })

	// Tenant A's provider loses one copy, and both tenants edit.
	a := tenants[0]
	img := a.tenant.Client().Image()
	seg, _ := img.Segment(img.Lookup("first.bin").Current().SegmentIDs[0])
	lost := seg.Blocks[0]
	blockPath := cloud.JoinPath(transfer.DefaultBlockDir, meta.BlockName(seg.ID, lost.BlockID))
	var lostOn *cloudsim.Store
	for _, st := range a.stores {
		if st.Name() == lost.CloudID {
			lostOn = st
		}
	}
	if err := cloudsim.NewDirect(lostOn).Delete(ctxT(t), blockPath); err != nil {
		t.Fatal(err)
	}
	for i, r := range tenants {
		writeFile(t, r.folder, "second.bin", randContent(int64(75+i), 12_000))
	}
	stored := func() bool {
		for _, p := range lostOn.Paths() {
			if p == blockPath {
				return true
			}
		}
		return false
	}
	until("the edits commit and the scrub restores the lost copy", 30*time.Second, func() bool {
		return has(tenants[0], "second.bin") && has(tenants[1], "second.bin") && stored() &&
			a.tenant.Client().Obs().Counter("scrub.repaired_blocks").Value() > 0
	})
	stop()

	mu.Lock()
	if len(errs) != 0 {
		t.Errorf("onError received %v", errs)
	}
	mu.Unlock()
	if s, _ := a.tenant.Client().Image().Segment(seg.ID); s == nil || !s.HasBlock(lost.BlockID, lost.CloudID) {
		t.Fatalf("segment %s no longer names block %d on %s", seg.ID, lost.BlockID, lost.CloudID)
	}
	for _, r := range tenants {
		peer, folder := r.peer(t)
		syncClientTo(t, peer, r.tenant.Client().Image().Version)
		want, got := userFiles(t, r.folder), userFiles(t, folder)
		if len(want) != 2 || len(got) != len(want) {
			t.Fatalf("tenant %s holds %d files, its peer %d, want 2 each", r.id, len(want), len(got))
		}
		for path, content := range want {
			if got[path] != content {
				t.Fatalf("tenant %s: %s differs on the peer", r.id, path)
			}
		}
	}
}
