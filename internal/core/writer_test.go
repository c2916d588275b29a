package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/deltasync"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
	"unidrive/internal/qlock"
)

// flagGate is one device's view of its clouds that, once armed, parks
// the device's metadata writes (all but the version stamp) until a
// second lock flag of the same device has landed and that hold's stamp
// poll has read every cloud — or until a short timeout.
type flagGate struct {
	clouds int
	mu     sync.Mutex
	armed  bool
	flags  map[string]bool // lock flag names uploaded since armed
	reads  int             // stamp reads since the second flag landed
	// parked is closed when the first write parks, opened when the gate
	// lets writes through.
	parked, opened   chan struct{}
	parkOnce, opener sync.Once
}

func newFlagGate(clouds int) *flagGate {
	return &flagGate{clouds: clouds, flags: make(map[string]bool), parked: make(chan struct{}), opened: make(chan struct{})}
}

func (g *flagGate) arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = true
}

func (g *flagGate) open() { g.opener.Do(func() { close(g.opened) }) }

type gatedCloud struct {
	cloud.Interface
	g *flagGate
}

func (c gatedCloud) Upload(ctx context.Context, path string, data []byte) error {
	g := c.g
	g.mu.Lock()
	armed := g.armed
	g.mu.Unlock()
	if armed && strings.HasPrefix(path, deltasync.DefaultDir+"/") && path != versionPath {
		g.parkOnce.Do(func() { close(g.parked) })
		select {
		case <-g.opened:
		case <-time.After(300 * time.Millisecond):
			g.open()
		}
	}
	err := c.Interface.Upload(ctx, path, data)
	if err == nil && armed && strings.HasPrefix(path, qlock.DefaultLockDir+"/") {
		g.mu.Lock()
		g.flags[path] = true
		g.mu.Unlock()
	}
	return err
}

func (c gatedCloud) Download(ctx context.Context, path string) ([]byte, error) {
	data, err := c.Interface.Download(ctx, path)
	if path == versionPath {
		g := c.g
		g.mu.Lock()
		if g.armed && len(g.flags) >= 2 {
			if g.reads++; g.reads >= g.clouds {
				g.open()
			}
		}
		g.mu.Unlock()
	}
	return data, err
}

// The quorum lock does not exclude a device's own second hold, so a
// scrub-repair commit that runs beside a pass must wait for the pass's
// commit — the client's one writer — or both plan the same version and
// one is lost. The gate holds the pass's metadata write until the
// scrub's lock flag and stamp poll have gone by, which is exactly when
// the two commits collide if nothing orders them.
func TestScrubRepairWaitsForThePass(t *testing.T) {
	r := newRig(5)
	g := newFlagGate(len(r.stores))
	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, gatedCloud{Interface: cloudsim.NewDirect(st), g: g})
	}
	fa := localfs.NewMem()
	a, err := New(clouds, fa, Config{Device: "alpha", Passphrase: "shared-secret", Theta: 4096})
	if err != nil {
		t.Fatal(err)
	}
	old, edit := randContent(51, 12_000), randContent(52, 12_000)
	writeFile(t, fa, "old.bin", old)
	syncOK(t, a)

	// A copy the scrub must restore.
	seg, _ := a.Image().Segment(a.Image().Lookup("old.bin").Current().SegmentIDs[0])
	lost := seg.Blocks[0]
	for _, st := range r.stores {
		if st.Name() == lost.CloudID {
			if err := cloudsim.NewDirect(st).Delete(ctxT(t), a.engine.BlockPath(seg.ID, lost.BlockID)); err != nil {
				t.Fatal(err)
			}
		}
	}

	writeFile(t, fa, "new.bin", edit)
	g.arm()
	done := make(chan error, 1)
	go func() { _, err := a.SyncDirty(ctxT(t), []string{"new.bin"}); done <- err }()
	select {
	case <-g.parked:
	case <-time.After(20 * time.Second):
		t.Fatal("the pass never wrote its metadata")
	}
	rep, err := a.Scrub(ctxT(t), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rep.RepairedBlocks == 0 || !rep.Committed {
		t.Fatalf("scrub repaired %d blocks, committed %v: the test tests nothing", rep.RepairedBlocks, rep.Committed)
	}

	// A fresh device sees both commits: the edit, and the repair's
	// placement record for the damaged segment.
	c, fc := r.device(t, "gamma")
	syncOK(t, c)
	requireFolders(t, map[string]string{"old.bin": old, "new.bin": edit}, map[string]*localfs.Mem{"gamma": fc})
	changes, ok := c.store.ChangesSince(0, c.Image().Version)
	if !ok {
		t.Fatal("the fresh device's record chain does not reach back to the first commit")
	}
	repaired := false
	for _, ch := range changes {
		repaired = repaired || ch.Type == meta.ChangePlace && ch.Path == seg.ID
	}
	if !repaired {
		t.Fatal("the scrub's repair commit was lost")
	}
}

// An edit no scan has seen is the folder's news, not noise. Against a
// remote edit it goes aside as a conflict copy and the remote version
// takes the path; against a remote delete the file stays. Either way
// the next scan commits what the user wrote.
func TestUnscannedEditMeetsRemoteChange(t *testing.T) {
	for _, remoteDelete := range []bool{false, true} {
		name := map[bool]string{false: "remote edit", true: "remote delete"}[remoteDelete]
		t.Run(name, func(t *testing.T) {
			r := newRig(5)
			a, fa := r.device(t, "alpha")
			b, fb := r.device(t, "beta")
			writeFile(t, fa, "doc.bin", randContent(61, 20_000))
			syncOK(t, a)
			syncOK(t, b)

			theirs := randContent(62, 20_000)
			if remoteDelete {
				if err := fa.Remove("doc.bin"); err != nil {
					t.Fatal(err)
				}
			} else {
				writeFile(t, fa, "doc.bin", theirs)
			}
			syncOK(t, a)

			ours := randContent(63, 20_000)
			if err := fb.WriteFile("doc.bin", []byte(ours), time.Now().Add(time.Minute)); err != nil {
				t.Fatal(err)
			}
			// SyncRemote does not scan: the edit stays unseen.
			rep, err := b.SyncRemote(ctxT(t))
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{"doc.bin": ours}
			if !remoteDelete {
				if len(rep.Conflicts) != 1 {
					t.Fatalf("conflicts = %v, want the unscanned edit kept as one copy", rep.Conflicts)
				}
				want = map[string]string{"doc.bin": theirs, rep.Conflicts[0]: ours}
			} else if len(rep.Conflicts) != 0 {
				t.Fatalf("conflicts = %v, want none: the edit survives the delete in place", rep.Conflicts)
			}
			requireFolders(t, want, map[string]*localfs.Mem{"beta": fb})

			if rep := syncOK(t, b); rep.LocalChanges != 1 {
				t.Fatalf("the next scan committed %d changes, want the user's bytes once", rep.LocalChanges)
			}
			syncOK(t, a)
			requireFolders(t, want, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
		})
	}
}
