package cloudhttp

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
)

// dialStalling starts a server whose handler hangs until the request
// context is done, modelling a cloud that accepts connections but
// never answers.
func dialStalling(t *testing.T) *Client {
	t.Helper()
	// The server does not reliably cancel r.Context() for an idle
	// HTTP/1 handler, so the stall needs an explicit release at test
	// end or srv.Close would wait on it forever.
	release := make(chan struct{})
	stall := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/name" {
			_, _ = w.Write([]byte("hung"))
			return
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	srv := httptest.NewServer(stall)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) })
	c, err := Dial(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDialSetsDefaultOpTimeout(t *testing.T) {
	store := cloudsim.NewStore("c1", 0)
	srv := httptest.NewServer(NewHandler(cloudsim.NewDirect(store)))
	defer srv.Close()
	c, err := Dial(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if c.opTimeout != DefaultOpTimeout {
		t.Fatalf("per-call deadline = %v, want %v", c.opTimeout, DefaultOpTimeout)
	}
}

func TestOpTimeoutMapsToTransient(t *testing.T) {
	c := dialStalling(t)
	c.SetOpTimeout(30 * time.Millisecond)
	start := time.Now()
	err := c.Upload(context.Background(), "f", []byte("x"))
	if !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call took %v, per-op timeout did not bound it", elapsed)
	}
	// Downloads go through the same path.
	if _, err := c.Download(context.Background(), "f"); !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("download err = %v, want ErrTransient", err)
	}
}

func TestOuterCancelIsNotTransient(t *testing.T) {
	// A caller-initiated cancellation is not a cloud fault: it must
	// surface as context.Canceled so circuit breakers ignore it.
	c := dialStalling(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Upload(ctx, "f", []byte("x")) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if errors.Is(err, cloud.ErrTransient) {
			t.Fatalf("caller cancellation misclassified as transient: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("upload not interrupted by cancellation")
	}
}

func TestOpTimeoutDisabled(t *testing.T) {
	// d <= 0 removes the bound: the call hangs until the caller's own
	// deadline fires.
	c := dialStalling(t)
	c.SetOpTimeout(0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := c.Upload(ctx, "f", []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from the caller's ctx", err)
	}
}

func TestOpTimeoutBoundsSlowBody(t *testing.T) {
	// The deadline covers the body read, not just the round trip: a
	// server that sends headers and then stalls mid-body must not hang
	// the client.
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/name" {
			_, _ = w.Write([]byte("drip"))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("partial"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	srv := httptest.NewServer(slow)
	defer srv.Close()
	defer close(release)
	c, err := Dial(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	c.SetOpTimeout(30 * time.Millisecond)
	start := time.Now()
	_, err = c.Download(context.Background(), "f")
	if !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("body read took %v, timeout did not bound it", elapsed)
	}
}

func TestOpTimeoutLeavesFastCallsAlone(t *testing.T) {
	store := cloudsim.NewStore("c1", 0)
	srv := httptest.NewServer(NewHandler(cloudsim.NewDirect(store)))
	defer srv.Close()
	c, err := Dial(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	c.SetOpTimeout(5 * time.Second)
	if err := c.Upload(context.Background(), "f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, err := c.Download(context.Background(), "f")
	if err != nil || string(data) != "payload" {
		t.Fatalf("download = %q, %v", data, err)
	}
	if _, err := c.List(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(context.Background(), "f"); err != nil {
		t.Fatal(err)
	}
}
