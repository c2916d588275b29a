package deltasync

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
)

// gate holds a cloud's version-file reads until it is opened: a hung
// cloud that answers the stamp poll only when the test says so.
type gate struct {
	cloud.Interface
	open chan struct{}
}

func (g *gate) Download(ctx context.Context, path string) ([]byte, error) {
	if path == DefaultDir+"/"+versionFile {
		select {
		case <-g.open:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.Interface.Download(ctx, path)
}

// gatedStore builds a store over the rig's clouds whose version-file
// reads on the hung clouds wait for their gate; every request passes a
// Recorder. The gates are opened when the test ends at the latest.
func (r *rig) gatedStore(t *testing.T, device string, cfg Config, hung ...int) (*Store, []*gate, []*cloudsim.Recorder) {
	t.Helper()
	gates := make([]*gate, len(r.clouds))
	recs := make([]*cloudsim.Recorder, len(r.clouds))
	clouds := make([]cloud.Interface, len(r.clouds))
	for i, c := range r.clouds {
		gates[i] = &gate{Interface: c, open: make(chan struct{})}
		if !slices.Contains(hung, i) {
			close(gates[i].open)
		}
		recs[i] = cloudsim.NewRecorder(gates[i])
		clouds[i] = recs[i]
	}
	t.Cleanup(func() { openGates(gates, hung...) })
	cfg.Device = device
	return New(clouds, testCipher(t), cfg), gates, recs
}

// openGates lets the named hung clouds answer.
func openGates(gates []*gate, which ...int) {
	for _, i := range which {
		select {
		case <-gates[i].open:
		default:
			close(gates[i].open)
		}
	}
}

// refreshWithin runs Refresh and returns the version it stands at,
// failing the test if it waits for a hung cloud instead of deciding on
// the quorum.
func refreshWithin(t *testing.T, s *Store) int64 {
	t.Helper()
	type result struct {
		version int64
		err     error
	}
	done := make(chan result, 1)
	go func() {
		img, err := s.Refresh(context.Background())
		if err != nil {
			done <- result{err: err}
			return
		}
		done <- result{version: img.Version}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		return res.version
	case <-time.After(time.Minute):
		t.Fatal("Refresh waited for a hung cloud")
		return 0
	}
}

// subsets returns every k-cloud subset of n clouds.
func subsets(n, k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for first := 0; first <= n-k; first++ {
		for _, rest := range subsets(n-first-1, k-1) {
			set := []int{first}
			for _, v := range rest {
				set = append(set, first+1+v)
			}
			out = append(out, set)
		}
	}
	return out
}

func others(n int, set []int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if !slices.Contains(set, i) {
			out = append(out, i)
		}
	}
	return out
}

// Any quorum of answers holds the newest committed stamp, because a
// commit succeeds on a majority: for every three clouds that hold a
// commit (the other two stale) and every three that answer the poll
// first (the other two hung), Refresh finds the commit.
func TestQuorumPollFindsEveryCommit(t *testing.T) {
	for _, holders := range subsets(5, 3) {
		for _, first := range subsets(5, 3) {
			t.Run(fmt.Sprintf("held-by-%v/first-%v", holders, first), func(t *testing.T) {
				r := newRig(5)
				w := r.store(t, "dW", Config{})
				commitOne(t, w, "a", "s1")
				reader, _, _ := r.gatedStore(t, "dR", Config{}, others(5, first)...)
				if _, err := reader.fetchAll(context.Background()); err != nil {
					t.Fatal(err)
				}
				for _, i := range others(5, holders) {
					r.flaky[i].SetDown(true)
				}
				commitOne(t, w, "b", "s2")
				for _, i := range others(5, holders) {
					r.flaky[i].SetDown(false)
				}

				if got := refreshWithin(t, reader); got != 2 {
					t.Fatalf("Refresh stands at v%d, want the commit v2", got)
				}
				wantSameImage(t, "reader after the quorum poll", reader.CachedShared(), w.CachedShared())
			})
		}
	}
}

// Refresh decides without two hung clouds, and so does the Commit that
// follows: it writes the three clouds that answered — catching up, by
// the tail alone, the one of them a commit left behind — and returns
// with the two hung clouds' answers still out, reading no stamp itself.
func TestPollWithTwoHungClouds(t *testing.T) {
	ctx := context.Background()
	r := newRig(5)
	w := r.store(t, "dW", Config{})
	commitOne(t, w, "a", "s1")
	r.flaky[4].SetDown(true)
	r.flaky[3].SetDown(true)
	commitOne(t, w, "b", "s2") // clouds 3 and 4 stay at v1
	w.JoinPoll(ctx)
	r.flaky[4].SetDown(false)
	r.flaky[0].SetDown(true)
	commitOne(t, w, "c", "s3") // cloud 0 stays at v2, cloud 3 at v1
	w.JoinPoll(ctx)
	r.flaky[0].SetDown(false)
	r.flaky[3].SetDown(false)

	reg := obs.NewRegistry()
	s, gates, recs := r.gatedStore(t, "dR", Config{Obs: reg}, 3, 4)
	if _, err := s.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}
	if got := refreshWithin(t, s); got != 3 {
		t.Fatalf("Refresh stands at v%d, want v3", got)
	}
	if n := reg.Counter("deltasync.refresh.noop").Value(); n != 1 {
		t.Errorf("noop refreshes = %d, want 1: the three answers show nothing newer", n)
	}

	bases := baseUploads(recs)
	type result struct {
		stats CommitStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := s.Commit(ctx, batch("d", 1))
		done <- result{stats, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(time.Minute):
		t.Fatal("Commit waited for a hung cloud")
	}
	if res.err != nil || res.stats.CloudsOK != 3 {
		t.Fatalf("commit: %+v, %v", res.stats, res.err)
	}
	wantBaseUploads(t, recs, bases, -1)
	if n := reg.Counter("deltasync.commit.catchups.tail").Value(); n != 1 {
		t.Errorf("tail catch-ups = %d, want 1: cloud 0's", n)
	}
	if g := reg.Gauge("deltasync.commit.behind").Value(); g != 2 {
		t.Errorf("clouds behind = %v, want 2", g)
	}
	for i, rec := range recs {
		if got := rec.CountsUnder(DefaultDir + "/" + versionFile).Upload; (i < 3) != (got == 1) {
			t.Errorf("cloud %d: %d version files written", i, got)
		}
	}
	openGates(gates, 3, 4)
	s.JoinPoll(ctx)
	if got := metaCounts(recs, versionFile).Download; got != 5 {
		t.Errorf("%d version files read, want the poll's 5", got)
	}
	if n := reg.Counter("deltasync.poll.late_answers").Value(); n != 2 {
		t.Errorf("late answers = %d, want the two hung clouds'", n)
	}
}

// With fewer than a quorum able to answer cleanly the poll waits for
// every answer and decides as it always has: on whatever the reachable
// clouds say, and with no cloud reachable, with the same error.
func TestPollBelowQuorumWaitsForEveryAnswer(t *testing.T) {
	ctx := context.Background()
	r := newRig(5)
	w := r.store(t, "dW", Config{})
	commitOne(t, w, "a", "s1")
	reg := obs.NewRegistry()
	reader := r.store(t, "dR", Config{Obs: reg})
	if _, err := reader.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}
	// Clouds 0 and 1 down: v2 reaches clouds 2 to 4.
	r.flaky[0].SetDown(true)
	r.flaky[1].SetDown(true)
	commitOne(t, w, "b", "s2")

	// Two down and one unreadable stamp: two clean answers.
	upload(t, r.stores[2], versionFile, []byte("not a stamp"))
	img, err := reader.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if img.Version != 2 {
		t.Fatalf("Refresh below the quorum stands at v%d, want v2", img.Version)
	}
	if n := reg.Counter("deltasync.poll.late_answers").Value(); n != 0 {
		t.Errorf("late answers = %d, want 0: a poll below the quorum waits for every answer", n)
	}

	for _, f := range r.flaky {
		f.SetDown(true)
	}
	_, err = r.store(t, "dC", Config{}).Refresh(ctx)
	if err == nil || !errors.Is(err, cloud.ErrUnavailable) || !strings.Contains(err.Error(), "no cloud reachable for version check") {
		t.Fatalf("Refresh with every cloud down: %v", err)
	}
}

// Across a rotation the full path reads one lineage — the newest
// answered cloud's — not every cloud's.
func TestQuorumFullReadReadsOneCloud(t *testing.T) {
	ctx := context.Background()
	r := newRig(5)
	w := r.store(t, "dW", Config{})
	w.lambda = func(int) int { return 1 }
	commitOne(t, w, "a", "s1")
	reader, recs := r.recordedStore(t, "dR", Config{})
	if _, err := reader.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}
	commitOne(t, w, "b", "s2") // rotates: the reader's cursor cannot follow
	reg := obs.NewRegistry()
	reader.cfg.Obs = reg
	before := metaCounts(recs, baseFile).Download

	img, err := reader.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSameImage(t, "reader across a rotation", img, w.CachedShared())
	if n := reg.Counter("deltasync.refresh.full").Value(); n != 1 {
		t.Errorf("full refreshes = %d, want 1", n)
	}
	if n := reg.Counter("deltasync.refresh.full_reads").Value(); n != 1 {
		t.Errorf("lineages read = %d, want 1", n)
	}
	if got := metaCounts(recs, baseFile).Download - before; got != 1 {
		t.Errorf("%d bases downloaded, want 1", got)
	}
}

// A torn delta on the first cloud the full path reads sends it on to
// the next cloud advertising the same stamp.
func TestTornDeltaFullReadMovesOn(t *testing.T) {
	r := newRig(5)
	w := r.pinnedStore(t, "dW", Config{}) // writes clouds 0..2
	w.lambda = func(int) int { return 1 }
	commitOne(t, w, "a", "s1") // base v1
	w.lambda = func(int) int { return 1 << 30 }
	commitOne(t, w, "b", "s2") // tail [v2] on base v1
	whole := download(t, r.stores[0], deltaFile)
	upload(t, r.stores[0], deltaFile, whole[:len(whole)/2])

	// Clouds 0..2 answer the poll; cloud 0, the first in line, is torn.
	reg := obs.NewRegistry()
	reader, _, _ := r.gatedStore(t, "dR", Config{Obs: reg}, 3, 4)
	if got := refreshWithin(t, reader); got != 2 {
		t.Fatalf("Refresh stands at v%d, want v2", got)
	}
	wantSameImage(t, "cold reader past a torn delta", reader.CachedShared(), w.CachedShared())
	if n := reg.Counter("deltasync.refresh.full").Value(); n != 1 {
		t.Errorf("full refreshes = %d, want 1", n)
	}
	if n := reg.Counter("deltasync.refresh.full_reads").Value(); n != 2 {
		t.Errorf("lineages read = %d, want 2: the torn cloud's, then the next", n)
	}
}
