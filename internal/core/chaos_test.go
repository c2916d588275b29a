package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/health"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

// chaosDevice builds a client whose every cloud connector injects
// transient failures with probability prob, with full telemetry and a
// world clock so retry backoffs don't burn wall time. All randomness
// is seeded, so a failing run reproduces exactly.
func (r *rig) chaosDevice(t *testing.T, name string, prob float64, seed int64) (*Client, *localfs.Mem, *obs.Registry) {
	t.Helper()
	folder := localfs.NewMem()
	reg := obs.NewRegistry()
	var clouds []cloud.Interface
	var flakies []*cloudsim.Flaky
	for i, st := range r.stores {
		f := cloudsim.NewFlaky(cloudsim.NewDirect(st), prob, seed*100+int64(i))
		flakies = append(flakies, f)
		clouds = append(clouds, f)
	}
	r.flaky[name] = flakies
	c, err := New(clouds, folder, Config{
		Device:     name,
		Passphrase: "shared-secret",
		Theta:      4096,
		Clock:      vclock.NewWorld(time.Unix(0, 0)),
		LockExpiry: 2 * time.Second,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, folder, reg
}

// syncChaos runs SyncOnce, retrying while fault injection defeats a
// whole pass; each attempt's failures still land in the obs table, so
// the reconciliation stays exact.
func syncChaos(t *testing.T, c *Client) SyncReport {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 25; attempt++ {
		rep, err := c.SyncOnce(ctxT(t))
		if err == nil {
			return rep
		}
		lastErr = err
	}
	t.Fatalf("%s: SyncOnce never succeeded: %v", c.Device(), lastErr)
	return SyncReport{}
}

// syncChaosTo syncs until the device's committed metadata reaches at
// least the given version. A single successful pass is not enough
// under fault injection: a failed version-file read legitimately
// reads as "no remote change", so the pass commits nothing and the
// device catches up on a later pass.
func syncChaosTo(t *testing.T, c *Client, version int64) SyncReport {
	t.Helper()
	for attempt := 0; attempt < 25; attempt++ {
		rep := syncChaos(t, c)
		if rep.Version >= version {
			return rep
		}
	}
	t.Fatalf("%s: never reached version %d", c.Device(), version)
	return SyncReport{}
}

// reconcile asserts that the device's observed error outcomes match
// the faults its Flaky connectors injected, one-for-one per cloud.
// This only holds because the Instrument wrapper sits directly above
// the raw connector: one op-table row is one real API request.
func reconcile(t *testing.T, r *rig, device string, reg *obs.Registry) {
	t.Helper()
	s := reg.Snapshot()
	for i, f := range r.flaky[device] {
		name := r.stores[i].Name()
		transient, outage := f.InjectedFaults()
		if got, want := s.OutcomeTotal(name, obs.Transient), int64(transient.Total()); got != want {
			t.Errorf("%s/%s: observed %d transient outcomes, injected %d\n%s",
				device, name, got, want, s)
		}
		if got, want := s.OutcomeTotal(name, obs.Unavailable), int64(outage.Total()); got != want {
			t.Errorf("%s/%s: observed %d unavailable outcomes, injected %d\n%s",
				device, name, got, want, s)
		}
	}
}

func TestChaosSoak(t *testing.T) {
	for _, prob := range []float64{0.05, 0.15, 0.30} {
		prob := prob
		t.Run(fmt.Sprintf("p=%.2f", prob), func(t *testing.T) {
			r := newRig(5)
			a, fa, regA := r.chaosDevice(t, "alpha", prob, 1000+int64(prob*100))
			b, fb, regB := r.chaosDevice(t, "beta", prob, 2000+int64(prob*100))

			// Round 1: alpha creates a few multi-segment files.
			want := map[string]string{
				"docs/spec.txt": randContent(1, 15_000),
				"img/logo.bin":  randContent(2, 9_000),
				"notes.md":      randContent(3, 2_000),
			}
			for p, content := range want {
				writeFile(t, fa, p, content)
			}
			rep := syncChaos(t, a)
			syncChaosTo(t, b, rep.Version)

			// Round 2: alpha mutates one file, adds one, deletes one.
			want["docs/spec.txt"] = randContent(4, 17_000)
			writeFile(t, fa, "docs/spec.txt", want["docs/spec.txt"])
			want["extra.dat"] = randContent(5, 6_000)
			writeFile(t, fa, "extra.dat", want["extra.dat"])
			if err := fa.Remove("notes.md"); err != nil {
				t.Fatal(err)
			}
			delete(want, "notes.md")
			rep = syncChaos(t, a)
			syncChaosTo(t, b, rep.Version)

			// Integrity: beta's folder is byte-identical to alpha's.
			for p, content := range want {
				got, err := fb.ReadFile(p)
				if err != nil {
					t.Fatalf("beta missing %s: %v", p, err)
				}
				if !bytes.Equal(got, []byte(content)) {
					t.Errorf("%s differs on beta (%d vs %d bytes)", p, len(got), len(content))
				}
			}
			if _, err := fb.ReadFile("notes.md"); !errors.Is(err, localfs.ErrNotExist) {
				t.Errorf("deleted notes.md still on beta (err=%v)", err)
			}

			// Exact fault accounting, both devices, once no request of a
			// hold's tail is in flight.
			settle(t, a)
			settle(t, b)
			reconcile(t, r, "alpha", regA)
			reconcile(t, r, "beta", regB)

			// The telemetry also saw the successful traffic.
			s := regA.Snapshot()
			if got := s.OutcomeTotal(r.stores[0].Name(), obs.OK); got == 0 {
				t.Error("no successful calls recorded for c0")
			}
			if s.Counter("qlock.acquire.won") == 0 {
				t.Error("no lock acquisitions recorded despite committed syncs")
			}
		})
	}
}

// resilientDevice is chaosDevice plus the breaker stack: a health
// tracker shared by all of the device's clouds, on the device's world
// clock, so open breakers re-probe once the device's own waits have
// covered their cooldown (health.OpenTimeout).
func (r *rig) resilientDevice(t *testing.T, name string, prob float64, seed int64) (*Client, *localfs.Mem, *obs.Registry, *health.Tracker) {
	t.Helper()
	folder := localfs.NewMem()
	reg := obs.NewRegistry()
	clk := vclock.NewWorld(time.Unix(0, 0))
	tracker := health.NewDefaultTracker(clk, seed, reg)
	var clouds []cloud.Interface
	var flakies []*cloudsim.Flaky
	for i, st := range r.stores {
		f := cloudsim.NewFlaky(cloudsim.NewDirect(st), prob, seed*100+int64(i))
		flakies = append(flakies, f)
		clouds = append(clouds, f)
	}
	r.flaky[name] = flakies
	c, err := New(clouds, folder, Config{
		Device:     name,
		Passphrase: "shared-secret",
		Theta:      4096,
		Clock:      clk,
		LockExpiry: 2 * time.Second,
		Obs:        reg,
		Health:     tracker,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, folder, reg, tracker
}

// breakerTransitions reads the per-cloud transition counters.
func breakerTransitions(reg *obs.Registry, cloudName string) (opened, halfOpened, closed int64) {
	return reg.Counter("health.breaker." + cloudName + ".opened").Value(),
		reg.Counter("health.breaker." + cloudName + ".half_opened").Value(),
		reg.Counter("health.breaker." + cloudName + ".closed").Value()
}

// TestChaosBreakerFailover is the resilience soak: one cloud dies
// mid-upload on the writing device (and stays dead), another dies
// mid-download on the reading device (and heals). Both devices must
// converge byte-identically, the breaker transition counters must
// tell exactly that story, and the fault accounting must stay exact —
// breaker rejections are local and never inflate the op table.
func TestChaosBreakerFailover(t *testing.T) {
	r := newRig(5)
	a, fa, regA, trkA := r.resilientDevice(t, "alpha", 0, 61)
	b, fb, regB, trkB := r.resilientDevice(t, "beta", 0, 62)

	// Pre-round with all clouds healthy, so both devices are warm.
	want := map[string]string{"pre.bin": randContent(20, 8_000)}
	writeFile(t, fa, "pre.bin", want["pre.bin"])
	preRep := syncChaos(t, a)
	syncChaosTo(t, b, preRep.Version)

	// c1 dies on alpha a few requests into the next sync — mid-upload,
	// not before it — and never comes back.
	deadUp := r.flaky["alpha"][1]
	deadUp.AddOutageWindow(deadUp.Ops()+3, 1<<30)
	want["big/archive.bin"] = randContent(21, 24_000)
	writeFile(t, fa, "big/archive.bin", want["big/archive.bin"])
	upRep := syncChaos(t, a)

	if _, outage := deadUp.InjectedFaults(); outage.Total() == 0 {
		t.Fatal("upload sync never hit the dying cloud — outage window missed the transfer")
	}
	// Open, or half-open if the cooldown elapsed between the
	// trip and this read — the transition counters below pin down that
	// it tripped and never closed.
	if st := trkA.Breaker("c1").State(); st == health.Closed {
		t.Errorf("alpha breaker for c1 = %v, want tripped", st)
	}
	if opened, _, closed := breakerTransitions(regA, "c1"); opened < 1 || closed != 0 {
		t.Errorf("alpha c1 transitions: opened=%d closed=%d, want opened>=1 closed=0", opened, closed)
	}

	// c3 dies on beta for the whole catch-up sync and recovers after a
	// short window. The window opens at c3's very next request: with
	// the delta-cursor refresh a catch-up pass reads only version
	// stamps plus the blocks the scheduler routes to each cloud, and
	// the speed-ranked download plan may legitimately send c3 nothing —
	// so a later-opening window can miss the sync entirely.
	deadDown := r.flaky["beta"][3]
	deadDown.AddOutageWindow(deadDown.Ops(), deadDown.Ops()+8)
	syncChaosTo(t, b, upRep.Version)

	// Byte-identical convergence despite both fault injections.
	for p, content := range want {
		got, err := fb.ReadFile(p)
		if err != nil {
			t.Fatalf("beta missing %s: %v", p, err)
		}
		if !bytes.Equal(got, []byte(content)) {
			t.Errorf("%s differs on beta (%d vs %d bytes)", p, len(got), len(content))
		}
	}

	if _, outage := deadDown.InjectedFaults(); outage.Total() == 0 {
		t.Fatal("download sync never hit the dying cloud — outage window missed the transfer")
	}
	if opened, _, _ := breakerTransitions(regB, "c3"); opened < 1 {
		t.Fatalf("beta c3 never tripped: opened=%d", opened)
	}

	// Drive beta until its breaker re-probes c3 (the outage window is
	// over, so probes succeed) and closes again. Each committing sync
	// reads every cloud's version stamp, giving the half-open breaker
	// its probe; the sleeps on beta's world clock let the cooldown
	// elapse.
	recovered := false
	for i := 0; i < 300 && !recovered; i++ {
		b.cfg.Clock.Sleep(health.OpenTimeout / 10)
		writeFile(t, fb, "beta-note.txt", randContent(40+int64(i), 200))
		syncChaos(t, b)
		recovered = trkB.Breaker("c3").State() == health.Closed
	}
	if !recovered {
		t.Fatal("beta breaker for c3 never closed after the outage window ended")
	}
	// The transition counters reconcile: every open was followed by a
	// half-open re-probe, and the heal registered as a close.
	if opened, halfOpened, closed := breakerTransitions(regB, "c3"); opened < 1 || halfOpened < opened || closed < 1 {
		t.Errorf("beta c3 transitions: opened=%d half_opened=%d closed=%d, want opened>=1, half_opened>=opened, closed>=1",
			opened, halfOpened, closed)
	}

	// Hedge accounting is internally consistent on both devices: every
	// hedge resolves as a win or a loss, and cancellations never exceed
	// the hedges issued.
	for _, reg := range []*obs.Registry{regA, regB} {
		hedges := reg.Counter("transfer.down.hedges").Value()
		wins := reg.Counter("transfer.down.hedge_wins").Value()
		losses := reg.Counter("transfer.down.hedge_losses").Value()
		cancelled := reg.Counter("transfer.down.hedge_cancelled").Value()
		if wins+losses > hedges || cancelled > hedges {
			t.Errorf("hedge accounting: hedges=%d wins=%d losses=%d cancelled=%d", hedges, wins, losses, cancelled)
		}
	}

	// Fault accounting stays exact with breakers in the stack.
	settle(t, a)
	settle(t, b)
	reconcile(t, r, "alpha", regA)
	reconcile(t, r, "beta", regB)
}

// quotaDevice is chaosDevice plus the capacity stack: a per-device
// tracker on its own manual clock, so the test controls exactly when
// Full clouds become eligible for re-probing. The core clock is a
// world clock — qlock sleeps on it between acquisition attempts, and a
// frozen clock there would hang a contended lock — while the tracker
// only ever reads its clock, never sleeps on it.
func (r *rig) quotaDevice(t *testing.T, name string, seed int64) (*Client, *localfs.Mem, *obs.Registry, *capacity.Tracker, *vclock.Manual) {
	t.Helper()
	folder := localfs.NewMem()
	reg := obs.NewRegistry()
	capClk := vclock.NewManual(time.Unix(1_700_000_000, 0))
	tracker := capacity.NewDefaultTracker(capClk, reg)
	var clouds []cloud.Interface
	var flakies []*cloudsim.Flaky
	for i, st := range r.stores {
		f := cloudsim.NewFlaky(cloudsim.NewDirect(st), 0, seed*100+int64(i))
		flakies = append(flakies, f)
		clouds = append(clouds, f)
	}
	r.flaky[name] = flakies
	c, err := New(clouds, folder, Config{
		Device:     name,
		Passphrase: "shared-secret",
		Theta:      4096,
		Clock:      vclock.NewWorld(time.Unix(0, 0)),
		LockExpiry: 2 * time.Second,
		Obs:        reg,
		Capacity:   tracker,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, folder, reg, tracker, capClk
}

// reconcileQuota asserts that every quota rejection the simulators
// performed — store-level (shared by all devices) or injected at a
// device's Flaky wrapper — was observed by exactly one device's
// capacity tracker. This only holds because the capacity observer
// sits directly above the raw connector stack: one simulator
// rejection is one ErrQuotaExceeded surfaced to one tracker.
func reconcileQuota(t *testing.T, r *rig, trackers map[string]*capacity.Tracker) {
	t.Helper()
	for i, st := range r.stores {
		name := st.Name()
		var observed, simulated int64
		for device, trk := range trackers {
			observed += trk.Rejections(name)
			simulated += int64(r.flaky[device][i].InjectedQuota())
		}
		simulated += st.QuotaRejections()
		if observed != simulated {
			t.Errorf("%s: trackers observed %d quota rejections, simulators performed %d",
				name, observed, simulated)
		}
	}
}

// TestChaosQuotaExhaustionSoak is the capacity soak: three of five
// clouds run out of quota mid-workload — one by a runtime store-quota
// shrink below its current usage (visible to every device), two by
// scripted wrapper rejections — and the writing device must commit
// the in-flight files THIN (>= K blocks on the surviving clouds)
// within a bounded number of passes, the reading device must still
// converge byte-identically (full clouds keep serving downloads), and
// every simulator rejection must reconcile one-for-one with tracker
// observations. Then capacity returns, and a repair scrub re-expands
// every thin segment back to its full placement.
func TestChaosQuotaExhaustionSoak(t *testing.T) {
	r := newRig(5)
	a, fa, regA, trkA, capClkA := r.quotaDevice(t, "alpha", 71)
	b, fb, regB, trkB, _ := r.quotaDevice(t, "beta", 72)
	trackers := map[string]*capacity.Tracker{"alpha": trkA, "beta": trkB}

	// Phase A: healthy baseline, both devices converged.
	want := map[string]string{
		"base/report.txt": randContent(50, 9_000),
		"base/data.bin":   randContent(51, 5_000),
	}
	for p, content := range want {
		writeFile(t, fa, p, content)
	}
	baseRep := syncChaos(t, a)
	syncChaosTo(t, b, baseRep.Version)

	// Phase B: mid-workload exhaustion. c1's quota shrinks below what
	// it already stores, so every further upload there — blocks, lock
	// files, metadata deltas — is rejected; c2 and c3 reject alpha's
	// next dozen ops at the wrapper. The windows are transient (later
	// lock and delta writes must pass, or the 3-of-5 quorum dies), but
	// the tracker's Full verdicts persist because its manual clock
	// never reaches the re-probe interval. That leaves c0 and c4 with
	// space: 2 clouds x MaxPerCloud 2 = 4 placements — at least K (3)
	// but short of NormalBlocks (5) — so new segments must commit THIN
	// rather than fail or spin.
	r.stores[1].SetQuota(1)
	for _, i := range []int{2, 3} {
		f := r.flaky["alpha"][i]
		f.AddQuotaWindow(f.Ops(), f.Ops()+12)
	}
	want["burst/big.bin"] = randContent(52, 10_000)
	want["burst/note.txt"] = randContent(53, 2_000)
	writeFile(t, fa, "burst/big.bin", want["burst/big.bin"])
	writeFile(t, fa, "burst/note.txt", want["burst/note.txt"])

	// Bounded retries are the no-hot-loop proof: quota rejections
	// re-plan within the pass instead of burning whole attempts, so a
	// handful of passes must land the thin commit.
	var thinRep SyncReport
	committed := false
	for attempt := 0; attempt < 5 && !committed; attempt++ {
		rep, err := a.SyncOnce(ctxT(t))
		if err == nil {
			thinRep, committed = rep, true
		}
	}
	if !committed {
		t.Fatal("alpha never committed within 5 passes under quota exhaustion — hot loop or livelock")
	}
	settle(t, a) // the batch is settled in the hold's tail
	if got := regA.Counter("core.commit.thin_segments").Value(); got == 0 {
		t.Error("no thin-segment commits counted despite 3 exhausted clouds")
	}
	// c1 is hard-full at the store: still Full after the pass. c2/c3
	// are not asserted — their windows end mid-pass, and the first
	// successful post-window upload (typically a lock file) is a
	// legitimate probe that flips them back to OK.
	if st := trkA.State("c1"); st != capacity.Full {
		t.Errorf("alpha capacity state for c1 = %v, want full", st)
	}
	for _, name := range []string{"c0", "c4"} {
		if st := trkA.State(name); st != capacity.OK {
			t.Errorf("alpha capacity state for %s = %v, want ok", name, st)
		}
	}

	// Every committed segment holds at least K blocks; the quota-era
	// segments are thin, short of the normal placement, and placed
	// only on clouds with space.
	target := a.Params().NormalBlocks()
	thin := 0
	for id, seg := range a.Image().AllSegments() {
		if len(seg.Blocks) < seg.K {
			t.Errorf("segment %s committed with %d blocks < K=%d", id, len(seg.Blocks), seg.K)
		}
		if !seg.Thin {
			continue
		}
		thin++
		if len(seg.Blocks) >= target {
			t.Errorf("thin segment %s holds %d blocks, expected fewer than the %d-block normal placement",
				id, len(seg.Blocks), target)
		}
		for _, blk := range seg.Blocks {
			if blk.CloudID != "c0" && blk.CloudID != "c4" {
				t.Errorf("thin segment %s placed a block on exhausted cloud %s", id, blk.CloudID)
			}
		}
	}
	if thin == 0 {
		t.Fatal("no thin segments committed despite 3 exhausted clouds")
	}

	// Beta converges byte-identically: full clouds still serve reads,
	// and K-of-N reconstruction covers the thin placements.
	syncChaosTo(t, b, thinRep.Version)
	for p, content := range want {
		got, err := fb.ReadFile(p)
		if err != nil {
			t.Fatalf("beta missing %s: %v", p, err)
		}
		if !bytes.Equal(got, []byte(content)) {
			t.Errorf("%s differs on beta (%d vs %d bytes)", p, len(got), len(content))
		}
	}

	// The exhaustion actually happened where the test scripted it, and
	// the accounting is exact on both sides of the seam.
	if trkA.Rejections("c1") == 0 {
		t.Error("alpha observed no store-level quota rejections on c1")
	}
	if r.flaky["alpha"][2].InjectedQuota() == 0 || r.flaky["alpha"][3].InjectedQuota() == 0 {
		t.Error("quota windows on c2/c3 injected nothing — the exhaustion missed the workload")
	}
	settle(t, a)
	settle(t, b)
	reconcileQuota(t, r, trackers)

	// Phase C: capacity returns. c1's quota is lifted and the probe
	// interval elapses on the tracker's clock, so the Full verdicts
	// decay to Probing; a repair scrub must then re-expand every thin
	// segment back to its full placement and clear the marks.
	r.stores[1].SetQuota(0)
	capClkA.Advance(2 * time.Minute)
	srep, err := a.Scrub(ctxT(t), true)
	if err != nil {
		t.Fatal(err)
	}
	if srep.ThinSegments != thin || srep.ThinCleared != thin || srep.ReexpandedBlocks == 0 || !srep.Committed {
		t.Errorf("scrub walked %d thin, cleared %d, re-expanded %d blocks (committed=%v); want %d walked and cleared",
			srep.ThinSegments, srep.ThinCleared, srep.ReexpandedBlocks, srep.Committed, thin)
	}
	if len(srep.UnrepairableCapacity) != 0 {
		t.Errorf("segments still capacity-blocked after quota restore: %v", srep.UnrepairableCapacity)
	}
	for id, seg := range a.Image().AllSegments() {
		if seg.Thin {
			t.Errorf("segment %s still thin after re-expansion", id)
		}
		if len(seg.Blocks) < target || len(seg.Blocks) > a.Params().MaxBlocks() {
			t.Errorf("segment %s holds %d blocks after re-expansion, want %d..%d",
				id, len(seg.Blocks), target, a.Params().MaxBlocks())
		}
		perCloud := make(map[string]int)
		for _, blk := range seg.Blocks {
			perCloud[blk.CloudID]++
		}
		for name, n := range perCloud {
			if n > a.Params().MaxPerCloud() {
				t.Errorf("segment %s holds %d blocks on %s, above MaxPerCloud %d",
					id, n, name, a.Params().MaxPerCloud())
			}
		}
	}

	// Post-restore writes place fully again, and beta picks up both
	// the re-expansion commits and the new file.
	want["after/fresh.bin"] = randContent(54, 6_000)
	writeFile(t, fa, "after/fresh.bin", want["after/fresh.bin"])
	afterRep := syncChaos(t, a)
	for id, seg := range a.Image().AllSegments() {
		if seg.Thin {
			t.Errorf("segment %s committed thin after capacity returned", id)
		}
	}
	syncChaosTo(t, b, afterRep.Version)
	for p, content := range want {
		got, err := fb.ReadFile(p)
		if err != nil {
			t.Fatalf("beta missing %s after recovery: %v", p, err)
		}
		if !bytes.Equal(got, []byte(content)) {
			t.Errorf("%s differs on beta after recovery", p)
		}
	}

	// The quota books still balance after probing and re-expansion,
	// and the transient/outage books were never touched.
	settle(t, a)
	settle(t, b)
	reconcileQuota(t, r, trackers)
	reconcile(t, r, "alpha", regA)
	reconcile(t, r, "beta", regB)
}

// TestChaosFullOutage drives a sync with one cloud fully down, then
// heals it, and checks both end-to-end integrity and that every
// unavailable outcome traces back to the outage injection.
func TestChaosFullOutage(t *testing.T) {
	r := newRig(5)
	a, fa, regA := r.chaosDevice(t, "alpha", 0, 31)
	b, fb, _ := r.chaosDevice(t, "beta", 0, 32)

	writeFile(t, fa, "pre.bin", randContent(10, 8_000))
	syncChaos(t, a)
	syncChaos(t, b)

	// c2 goes dark; alpha must still commit (4 live clouds >= quorum
	// and Kr).
	r.flaky["alpha"][2].SetDown(true)
	outageContent := randContent(11, 12_000)
	writeFile(t, fa, "during-outage.bin", outageContent)
	outageRep := syncChaos(t, a)

	_, outage := r.flaky["alpha"][2].InjectedFaults()
	if outage.Total() == 0 {
		t.Fatal("outage injected no faults — sync never touched the down cloud")
	}
	s := regA.Snapshot()
	name := r.stores[2].Name()
	if got, want := s.OutcomeTotal(name, obs.Unavailable), int64(outage.Total()); got != want {
		t.Errorf("observed %d unavailable outcomes on %s, injected %d", got, name, want)
	}
	// No other cloud saw an unavailable error.
	for i, st := range r.stores {
		if i == 2 {
			continue
		}
		if got := s.OutcomeTotal(st.Name(), obs.Unavailable); got != 0 {
			t.Errorf("%s reports %d unavailable outcomes without an outage", st.Name(), got)
		}
	}

	// Heal; beta (which never saw the outage) picks up the file.
	r.flaky["alpha"][2].SetDown(false)
	syncChaosTo(t, b, outageRep.Version)
	got, err := fb.ReadFile("during-outage.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(outageContent)) {
		t.Error("outage-era file corrupt on beta")
	}
	settle(t, a)
	reconcile(t, r, "alpha", regA)
}
