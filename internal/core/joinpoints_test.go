package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/deltasync"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
	"unidrive/internal/qlock"
	"unidrive/internal/vclock"
)

// countedCloud counts every request sent to it, and apart the metadata
// writes (uploads under the delta-sync directory).
type countedCloud struct {
	cloud.Interface
	sent, metaWrites *atomic.Int64
}

func (c *countedCloud) Upload(ctx context.Context, path string, data []byte) error {
	c.sent.Add(1)
	if strings.HasPrefix(path, deltasync.DefaultDir+"/") {
		c.metaWrites.Add(1)
	}
	return c.Interface.Upload(ctx, path, data)
}

func (c *countedCloud) Download(ctx context.Context, path string) ([]byte, error) {
	c.sent.Add(1)
	return c.Interface.Download(ctx, path)
}

func (c *countedCloud) CreateDir(ctx context.Context, path string) error {
	c.sent.Add(1)
	return c.Interface.CreateDir(ctx, path)
}

func (c *countedCloud) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	c.sent.Add(1)
	return c.Interface.List(ctx, path)
}

func (c *countedCloud) Delete(ctx context.Context, path string) error {
	c.sent.Add(1)
	return c.Interface.Delete(ctx, path)
}

// Every operation that must wait for the device's last lock hold waits
// for it: with the hold's released-block deletes parked, none returns
// or sends a request before they are let go, and each returns after.
// The next commit pass contends for the lock and refreshes beside the
// hold; only its commit waits. A polling pass does not wait at all.
func TestEveryJoinPointWaitsForTheLastHold(t *testing.T) {
	joinPoints := []struct {
		name string
		// quiet: the operation sends no request before the hold ends;
		// otherwise it sends no metadata write, and contends for the lock.
		quiet bool
		run   func(ctx context.Context, p *parkedHold) error
	}{
		{"the next commit pass", false, func(ctx context.Context, p *parkedHold) error {
			writeFile(t, p.fa, "next.bin", randContent(52, 3000))
			_, err := p.a.SyncDirty(ctx, []string{"next.bin"})
			return err
		}},
		{"Recover", true, func(ctx context.Context, p *parkedHold) error {
			_, err := p.a.Recover(ctx)
			return err
		}},
		{"SaveState", true, func(_ context.Context, p *parkedHold) error {
			return p.a.SaveState()
		}},
		{"SetClouds", true, func(ctx context.Context, p *parkedHold) error {
			return p.a.SetClouds(ctx, p.clouds)
		}},
		{"Scrub", true, func(ctx context.Context, p *parkedHold) error {
			_, err := p.a.Scrub(ctx, false)
			return err
		}},
		{"Scrub with repair", true, func(ctx context.Context, p *parkedHold) error {
			_, err := p.a.Scrub(ctx, true)
			return err
		}},
		{"TrimOverProvisioned", true, func(ctx context.Context, p *parkedHold) error {
			_, err := p.a.TrimOverProvisioned(ctx)
			return err
		}},
		{"RelieveCapacityPressure", true, func(ctx context.Context, p *parkedHold) error {
			p.capacity.ObserveQuotaExceeded("c4")
			_, err := p.a.RelieveCapacityPressure(ctx)
			return err
		}},
		{"JoinTail", true, func(_ context.Context, p *parkedHold) error {
			p.a.JoinTail()
			return nil
		}},
	}
	for _, jp := range joinPoints {
		t.Run(jp.name, func(t *testing.T) {
			p := parkDeletesInTheLastHold(t)
			_, flagsUp := p.w.entries("upload", qlock.DefaultLockDir)
			sentBefore, metaBefore := p.sent.Load(), p.metaWrites.Load()
			done := make(chan error, 1)
			go func() { done <- jp.run(ctxT(t), p) }()
			if !jp.quiet {
				waitCond(t, "the next pass to contend for the lock", func() bool {
					_, up := p.w.entries("upload", qlock.DefaultLockDir)
					return len(up) > len(flagsUp)
				})
			}
			time.Sleep(20 * time.Millisecond) // room for a return or a request that should not come
			select {
			case err := <-done:
				t.Fatalf("returned (%v) while the last hold's deletes were parked", err)
			default:
			}
			if n := p.sent.Load() - sentBefore; jp.quiet && n != 0 {
				t.Errorf("sent %d requests while the last hold's deletes were parked", n)
			}
			if n := p.metaWrites.Load() - metaBefore; n != 0 {
				t.Errorf("sent %d metadata writes while the last hold's deletes were parked", n)
			}
			p.w.deletes.open()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("never returned once the last hold's deletes were let go")
			}
			settle(t, p.a)
			if n := p.reg.Counter("qlock.release_timeouts").Value(); n != 0 {
				t.Errorf("qlock.release_timeouts = %d, want 0: every release ended in time", n)
			}
		})
	}

	t.Run("a polling pass", func(t *testing.T) {
		p := parkDeletesInTheLastHold(t)
		defer p.w.deletes.open()
		done := make(chan error, 1)
		go func() { _, err := p.a.SyncRemote(ctxT(t)); done <- err }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("the polling pass waited for the last hold's deletes")
		}
	})
}

// parkedHold is a device whose last hold, a deleting pass's, has
// released its lock and has its released-block deletes parked
// (w.deletes), every one of them asked. sent and metaWrites count the
// device's requests; capacity is its quota tracker.
type parkedHold struct {
	w                *tailWatch
	a                *Client
	fa               *localfs.Mem
	reg              *obs.Registry
	clouds           []cloud.Interface
	capacity         *capacity.Tracker
	sent, metaWrites atomic.Int64
}

func parkDeletesInTheLastHold(t *testing.T) *parkedHold {
	t.Helper()
	r := newRig(5)
	p := &parkedHold{w: newTailWatch("none"), fa: localfs.NewMem(), reg: obs.NewRegistry()}
	for _, st := range r.stores {
		p.clouds = append(p.clouds, &countedCloud{Interface: &tailCloud{Interface: cloudsim.NewDirect(st), w: p.w}, sent: &p.sent, metaWrites: &p.metaWrites})
	}
	// The tracker's clock is its own: no probe reopens a cloud marked
	// full during the test.
	p.capacity = capacity.NewDefaultTracker(vclock.NewManual(time.Unix(0, 0)), nil)
	var err error
	p.a, err = New(p.clouds, p.fa, Config{
		Device: "alpha", Passphrase: "shared-secret", Theta: 4096,
		Obs: p.reg, Capacity: p.capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, p.fa, "first.bin", randContent(51, 3000)) // one segment
	syncOK(t, p.a)
	recordPlacements(t, p.a)
	released := blockNames(t, p.a, p.a.Image(), "first.bin")

	p.w.deletes.hold()
	if err := p.fa.Remove("first.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.a.SyncDirty(ctxT(t), []string{"first.bin"}); err != nil {
		t.Fatal(err)
	}
	await(t, p.w.deleteAsked, len(released), "parked block deletes")
	waitCond(t, "the last hold's release", func() bool { return len(ownFlags(r, "alpha")) == 0 })
	// The rest of the pass's stamp poll may still be in flight.
	p.a.store.JoinPoll(ctxT(t))
	return p
}
