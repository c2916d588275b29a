package main

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"unidrive/internal/cloudhttp"
	"unidrive/internal/cloudsim"
	"unidrive/internal/localfs"
	"unidrive/internal/meta"
)

// TestRunRefusesOldFormatCheckpoint: a checkpoint that LoadState
// refuses stops the client with the re-sync error. It must not be
// taken for a cold start, which would commit the whole folder again
// over the clouds' metadata.
func TestRunRefusesOldFormatCheckpoint(t *testing.T) {
	var urls []string
	for i := range 5 {
		srv := httptest.NewServer(cloudhttp.NewHandler(cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("cloud%d", i), 0))))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f.txt"), []byte("content"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-folder", dir, "-device", "alpha", "-passphrase", "p", "-clouds", strings.Join(urls, ","), "-once"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	// Rename every segment in the checkpoint to the 40 hex digits of a
	// SHA-1 name, as the format before SHA-256 wrote them.
	state := filepath.Join(dir, filepath.FromSlash(localfs.StatePrefix), "state.json")
	data, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	old := regexp.MustCompile(`"([0-9a-f]{40})[0-9a-f]{24}"`).ReplaceAll(data, []byte(`"$1"`))
	if string(old) == string(data) {
		t.Fatal("the checkpoint names no SHA-256 segment")
	}
	if err := os.WriteFile(state, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(args); !errors.Is(err, meta.ErrOldFormat) {
		t.Fatalf("run over an old-format checkpoint = %v, want meta.ErrOldFormat", err)
	}
}
