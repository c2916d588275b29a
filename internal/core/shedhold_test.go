package core

import (
	"strings"
	"testing"
	"time"

	"unidrive/internal/localfs"
)

// Two devices commit different files while the first one's hold has
// shed its flags down to the quorum that won it. Alpha's commit is
// held at its version-stamp writes, after the shed; beta's commit
// meanwhile finds alpha's flags on that quorum,
// backs off, and commits on top of alpha's commit once alpha's hold
// is released. Both files reach both devices, with no conflict copy.
func TestPeerWaitsOutAShedHold(t *testing.T) {
	r := newRig(5)
	tp := newTap("c4") // c4 stands for the slowest cloud
	a, fa, areg := r.tappedDevice(t, "alpha", tp)
	tb := newTap("") // beta's clouds: only its version-stamp writes announced
	b, fb, breg := r.tappedDevice(t, "beta", tb)

	writeFile(t, fa, "alpha.txt", "written on alpha")
	writeFile(t, fb, "beta.txt", "written on beta")
	tp.stampWrites.hold()
	aDone := make(chan error, 1)
	go func() { _, err := a.SyncOnce(ctxT(t)); aDone <- err }()
	await(t, tp.writeAsked, 1, "version-stamp writes of alpha's commit held")
	for deadline := time.Now().Add(20 * time.Second); areg.Counter("qlock.shed_flags").Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tp.stampWrites.open()
			t.Fatal("alpha's hold shed no flag")
		}
	}

	bDone := make(chan error, 1)
	go func() { _, err := b.SyncOnce(ctxT(t)); bDone <- err }()
	for deadline := time.Now().Add(20 * time.Second); breg.Counter("qlock.backoffs").Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tp.stampWrites.open()
			t.Fatal("beta never backed off while alpha held the lock")
		}
	}
	select {
	case err := <-bDone:
		tp.stampWrites.open()
		t.Fatalf("beta's pass returned (%v) while alpha's commit was held", err)
	default:
	}
	if n := len(tb.stampPut); n != 0 {
		tp.stampWrites.open()
		t.Fatalf("beta wrote %d version stamps while alpha held the lock", n)
	}

	tp.stampWrites.open()
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("alpha's pass did not return once its stamp write was let go")
	}
	alphaAt := a.Image().Version
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("beta's pass did not return after alpha's hold was released")
	}
	if got := b.Image().Version; got != alphaAt+1 {
		t.Errorf("beta committed v%d, want v%d: on top of alpha's commit", got, alphaAt+1)
	}

	syncOK(t, a)
	syncOK(t, b)
	want := map[string]string{"alpha.txt": "written on alpha", "beta.txt": "written on beta"}
	requireFolders(t, want, map[string]*localfs.Mem{"alpha": fa, "beta": fb})
	for _, c := range []*Client{a, b} {
		img := c.Image()
		for path := range want {
			if e := img.Lookup(path); e == nil || e.Current() == nil {
				t.Errorf("%s's image v%d lacks %s", c.Device(), img.Version, path)
			}
		}
		for _, path := range img.Paths() {
			if strings.Contains(path, "conflicted copy") {
				t.Errorf("%s's image holds the conflict copy %s", c.Device(), path)
			}
		}
	}
}
