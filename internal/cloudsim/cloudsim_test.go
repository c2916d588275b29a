package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/netsim"
	"unidrive/internal/vclock"
)

func ctxb() context.Context { return context.Background() }

func TestStorePutGetRoundTrip(t *testing.T) {
	s := NewStore("c1", 0)
	d := NewDirect(s)
	if err := d.Upload(ctxb(), "a/b/file.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Download(ctxb(), "a/b/file.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q, want hello", got)
	}
}

func TestDownloadMissingIsNotFound(t *testing.T) {
	d := NewDirect(NewStore("c1", 0))
	_, err := d.Download(ctxb(), "nope")
	if !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestUploadOverwrites(t *testing.T) {
	s := NewStore("c1", 0)
	d := NewDirect(s)
	must(t, d.Upload(ctxb(), "f", []byte("v1")))
	must(t, d.Upload(ctxb(), "f", []byte("longer-v2")))
	got, err := d.Download(ctxb(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "longer-v2" {
		t.Fatalf("got %q", got)
	}
	if s.Used() != int64(len("longer-v2")) {
		t.Fatalf("Used = %d after overwrite, want %d", s.Used(), len("longer-v2"))
	}
}

func TestQuotaEnforced(t *testing.T) {
	d := NewDirect(NewStore("c1", 10))
	must(t, d.Upload(ctxb(), "a", make([]byte, 8)))
	err := d.Upload(ctxb(), "b", make([]byte, 4))
	if !errors.Is(err, cloud.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	// Overwriting within quota is fine: delta accounting.
	must(t, d.Upload(ctxb(), "a", make([]byte, 10)))
}

func TestQuotaReleasedOnDelete(t *testing.T) {
	s := NewStore("c1", 10)
	d := NewDirect(s)
	must(t, d.Upload(ctxb(), "a", make([]byte, 10)))
	must(t, d.Delete(ctxb(), "a"))
	if s.Used() != 0 {
		t.Fatalf("Used = %d after delete, want 0", s.Used())
	}
	must(t, d.Upload(ctxb(), "b", make([]byte, 10)))
}

func TestListDirectChildrenOnly(t *testing.T) {
	d := NewDirect(NewStore("c1", 0))
	must(t, d.Upload(ctxb(), "dir/f1", []byte("1")))
	must(t, d.Upload(ctxb(), "dir/f2", []byte("22")))
	must(t, d.Upload(ctxb(), "dir/sub/f3", []byte("333")))
	must(t, d.Upload(ctxb(), "other/f4", []byte("4")))
	entries, err := d.List(ctxb(), "dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("List(dir) = %d entries (%v), want 3", len(entries), entries)
	}
	// Sorted: f1, f2, sub.
	if entries[0].Name != "f1" || entries[1].Name != "f2" || entries[2].Name != "sub" {
		t.Fatalf("entries = %v", entries)
	}
	if !entries[2].IsDir {
		t.Fatal("sub should be a directory")
	}
	if entries[1].Size != 2 {
		t.Fatalf("f2 size = %d, want 2", entries[1].Size)
	}
}

func TestListRoot(t *testing.T) {
	d := NewDirect(NewStore("c1", 0))
	must(t, d.Upload(ctxb(), "top.txt", []byte("x")))
	must(t, d.Upload(ctxb(), "dir/nested", []byte("y")))
	entries, err := d.List(ctxb(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("List(root) = %v, want [dir top.txt]", entries)
	}
}

func TestListMissingDirIsEmpty(t *testing.T) {
	d := NewDirect(NewStore("c1", 0))
	entries, err := d.List(ctxb(), "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("List(ghost) = %v, want empty", entries)
	}
}

func TestCreateDirVisibleInList(t *testing.T) {
	d := NewDirect(NewStore("c1", 0))
	must(t, d.CreateDir(ctxb(), "a/b/c"))
	entries, err := d.List(ctxb(), "a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "c" || !entries[0].IsDir {
		t.Fatalf("List(a/b) = %v", entries)
	}
	// Parents exist too.
	entries, _ = d.List(ctxb(), "")
	if len(entries) != 1 || entries[0].Name != "a" {
		t.Fatalf("List(root) = %v", entries)
	}
	// Idempotent.
	must(t, d.CreateDir(ctxb(), "a/b/c"))
}

func TestDeleteRecursive(t *testing.T) {
	s := NewStore("c1", 0)
	d := NewDirect(s)
	must(t, d.Upload(ctxb(), "dir/f1", []byte("1")))
	must(t, d.Upload(ctxb(), "dir/sub/f2", []byte("22")))
	must(t, d.Upload(ctxb(), "keep", []byte("k")))
	must(t, d.Delete(ctxb(), "dir"))
	if _, err := d.Download(ctxb(), "dir/f1"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatal("dir/f1 survived recursive delete")
	}
	if _, err := d.Download(ctxb(), "dir/sub/f2"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatal("dir/sub/f2 survived recursive delete")
	}
	if _, err := d.Download(ctxb(), "keep"); err != nil {
		t.Fatal("unrelated file deleted")
	}
	if s.Used() != 1 {
		t.Fatalf("Used = %d, want 1", s.Used())
	}
}

func TestDeleteMissingIsNoError(t *testing.T) {
	d := NewDirect(NewStore("c1", 0))
	if err := d.Delete(ctxb(), "ghost"); err != nil {
		t.Fatalf("deleting missing path: %v", err)
	}
}

func TestReadAfterWriteConsistency(t *testing.T) {
	// Once Upload returns, List must observe the file — the one
	// consistency property the locking protocol depends on.
	d := NewDirect(NewStore("c1", 0))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("locks/lock_%d", i)
			if err := d.Upload(ctxb(), path, nil); err != nil {
				t.Errorf("upload: %v", err)
				return
			}
			entries, err := d.List(ctxb(), "locks")
			if err != nil {
				t.Errorf("list: %v", err)
				return
			}
			for _, e := range entries {
				if e.Name == fmt.Sprintf("lock_%d", i) {
					return
				}
			}
			t.Errorf("read-after-write violated for %s", path)
		}(i)
	}
	wg.Wait()
}

func TestConcurrentUploadsDistinctPaths(t *testing.T) {
	s := NewStore("c1", 0)
	d := NewDirect(s)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("d/%d", i)
			if err := d.Upload(ctxb(), path, []byte{byte(i)}); err != nil {
				t.Errorf("upload %s: %v", path, err)
			}
		}(i)
	}
	wg.Wait()
	if s.FileCount() != 32 {
		t.Fatalf("FileCount = %d, want 32", s.FileCount())
	}
}

func TestClientShapedBySimulatedNetwork(t *testing.T) {
	// On a world clock the 1 MB copy takes no simulated time, however
	// slow the machine.
	clk := vclock.NewWorld(time.Unix(0, 0))
	cfg := netsim.DefaultConfig(1)
	cfg.DegradedProb = 0
	env := netsim.NewEnv(clk, cfg, []netsim.CloudProfile{{
		Name: "c1", UpMbps: 8, DownMbps: 8, PerConnMbps: 8, Sigma: 0.0001,
	}})
	host := env.NewHost(netsim.LocationProfile{Name: "here", UplinkMbps: 1000, DownlinkMbps: 1000})
	c := NewClient(NewStore("c1", 0), host)

	data := make([]byte, 1<<20) // 1 MB at 8 Mbps ≈ 1 simulated second
	start := clk.Now()
	must(t, c.Upload(ctxb(), "big", data))
	elapsed := clk.Now().Sub(start)
	if elapsed < 500e6 || elapsed > 5e9 { // 0.5s .. 5s
		t.Fatalf("1MB upload took %v simulated; want ~1s", elapsed)
	}
	got, err := c.Download(ctxb(), "big")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("downloaded %d bytes, want %d", len(got), len(data))
	}
	if c.Name() != "c1" {
		t.Fatal("client name mismatch")
	}
	up, down, _ := c.Host().Traffic()
	if up < 1<<20 || down < 1<<20 {
		t.Fatalf("traffic not metered: up=%d down=%d", up, down)
	}
}

func TestClientOutagePropagates(t *testing.T) {
	clk := vclock.NewWorld(time.Unix(0, 0))
	env := netsim.NewEnv(clk, netsim.DefaultConfig(1), netsim.FiveClouds())
	host := env.NewHost(netsim.EC2Location("virginia"))
	c := NewClient(NewStore(netsim.Dropbox, 0), host)
	env.SetOutage(netsim.Dropbox, true)
	err := c.Upload(ctxb(), "f", []byte("x"))
	if !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if _, err := c.List(ctxb(), ""); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("List err = %v, want ErrUnavailable", err)
	}
}

func TestFlakyFailsWithInjectedProbability(t *testing.T) {
	f := NewFlaky(NewDirect(NewStore("c1", 0)), 1.0, 1)
	if err := f.Upload(ctxb(), "f", nil); !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient at prob 1", err)
	}
	ok := NewFlaky(NewDirect(NewStore("c1", 0)), 0, 1)
	if err := ok.Upload(ctxb(), "f", nil); err != nil {
		t.Fatalf("err = %v at prob 0", err)
	}
}

func TestFlakySetDown(t *testing.T) {
	f := NewFlaky(NewDirect(NewStore("c1", 0)), 0, 1)
	f.SetDown(true)
	if _, err := f.List(ctxb(), ""); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable when down", err)
	}
	f.SetDown(false)
	if _, err := f.List(ctxb(), ""); err != nil {
		t.Fatalf("err = %v after recovery", err)
	}
}

func TestRecorderCountsAndBytes(t *testing.T) {
	r := NewRecorder(NewDirect(NewStore("c1", 0)))
	must(t, r.Upload(ctxb(), "a", []byte("12345")))
	must(t, r.CreateDir(ctxb(), "d"))
	if _, err := r.Download(ctxb(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.List(ctxb(), ""); err != nil {
		t.Fatal(err)
	}
	must(t, r.Delete(ctxb(), "a"))
	c := r.Counts()
	want := CallCounts{Upload: 1, Download: 1, CreateDir: 1, List: 1, Delete: 1}
	if c != want {
		t.Fatalf("Counts = %+v, want %+v", c, want)
	}
	if c.Total() != 5 {
		t.Fatalf("Total = %d, want 5", c.Total())
	}
	up, down := r.Bytes()
	if up != 5 || down != 5 {
		t.Fatalf("Bytes = (%d, %d), want (5, 5)", up, down)
	}
	if paths := r.UploadedPaths(); len(paths) != 1 || paths[0] != "a" {
		t.Fatalf("UploadedPaths = %v", paths)
	}
	// Per-directory counts: the directory itself and everything below
	// it, but not a sibling sharing the name as a prefix.
	must(t, r.Upload(ctxb(), "d/x", nil))
	must(t, r.Upload(ctxb(), "d2", nil))
	if _, err := r.List(ctxb(), "d"); err != nil {
		t.Fatal(err)
	}
	if got, want := r.CountsUnder("d"), (CallCounts{Upload: 1, CreateDir: 1, List: 1}); got != want {
		t.Fatalf("CountsUnder(d) = %+v, want %+v", got, want)
	}
}

func TestInvalidPathsRejected(t *testing.T) {
	d := NewDirect(NewStore("c1", 0))
	if err := d.Upload(ctxb(), "/abs", nil); err == nil {
		t.Fatal("absolute path accepted")
	}
	if err := d.Upload(ctxb(), "a/../b", nil); err == nil {
		t.Fatal("dot-dot path accepted")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
