// Package cloud defines the contract between UniDrive and a consumer
// cloud storage (CCS) service.
//
// The central design constraint of UniDrive (paper §4) is that a
// third-party app may use only a handful of simple, stateless RESTful
// Web APIs: file upload and download, directory create and list, and
// delete. Everything UniDrive does — metadata replication, the quorum
// lock, update signalling — is expressed through these five calls.
// This package encodes that constraint as the Interface type; no code
// above this layer may touch a cloud any other way.
package cloud

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Interface is the minimum set of public data-access Web APIs that
// UniDrive assumes every CCS provides (paper §4, §7 "five basic file
// access interfaces"). Implementations must provide read-after-write
// consistency for List: once an Upload returns success, a subsequent
// List of the parent directory observes the file, and once any client
// has listed a file, all later List calls also observe it (until it is
// deleted). That is the only consistency the locking protocol relies
// on (paper §5.2).
//
// All methods must be safe for concurrent use.
type Interface interface {
	// Name returns the provider's identifier (e.g. "dropbox"). It is
	// stable across restarts and used as the Cloud-ID in metadata.
	Name() string

	// Upload stores data at path, overwriting any existing file.
	// Parent directories are created implicitly, matching the
	// behaviour of commercial CCS Web APIs. data is borrowed from the
	// caller only for the duration of the call: implementations must
	// not retain or mutate it after returning, because the data plane
	// recycles block buffers through a pool as soon as an upload
	// completes.
	Upload(ctx context.Context, path string, data []byte) error

	// Download returns the content of the file at path. It returns an
	// error wrapping ErrNotFound when no such file exists. The
	// returned buffer is freshly allocated and owned by the caller —
	// implementations must not hand out memory they will reuse, as
	// callers may recycle it into buffer pools.
	Download(ctx context.Context, path string) ([]byte, error)

	// CreateDir creates the directory at path, including any missing
	// parents. Creating an existing directory is not an error.
	CreateDir(ctx context.Context, path string) error

	// List returns the entries directly inside the directory at path.
	// Listing a non-existent directory returns an empty slice, not an
	// error, matching typical CCS Web API behaviour.
	List(ctx context.Context, path string) ([]Entry, error)

	// Delete removes the file or directory (recursively) at path.
	// Deleting a non-existent path is not an error: the paper's
	// protocols issue redundant deletes (e.g. withdrawing lock files
	// from clouds that never received them).
	Delete(ctx context.Context, path string) error
}

// Entry describes one item returned by List.
type Entry struct {
	// Name is the entry's base name within the listed directory.
	Name string `json:"name"`
	// Size is the file size in bytes; zero for directories.
	Size int64 `json:"size"`
	// IsDir reports whether the entry is a directory.
	IsDir bool `json:"isDir"`
	// ModTime is the provider's last-modified timestamp. UniDrive
	// never compares ModTimes across clouds or devices (there is no
	// global clock); it is informational only.
	ModTime time.Time `json:"modTime"`
}

// Sentinel errors returned (wrapped) by Interface implementations.
// Callers classify failures with errors.Is.
var (
	// ErrNotFound reports that the requested file does not exist.
	ErrNotFound = errors.New("cloud: file not found")
	// ErrQuotaExceeded reports that an upload would exceed the
	// account's storage quota.
	ErrQuotaExceeded = errors.New("cloud: storage quota exceeded")
	// ErrUnavailable reports a service outage: the cloud is not
	// reachable at all (paper §3.2 "service availability").
	ErrUnavailable = errors.New("cloud: service unavailable")
	// ErrTransient reports a transient request failure (paper §3.2:
	// "not every Web API request is always successful"). Retrying the
	// same request may succeed.
	ErrTransient = errors.New("cloud: transient request failure")
	// ErrCircuitOpen reports that the request was rejected locally,
	// without touching the network, because the cloud's circuit
	// breaker is open: recent traffic proved the cloud unhealthy and
	// the health layer is failing fast instead of burning a retry
	// budget against it. Callers should treat the cloud like an
	// outage (route around it); the breaker re-admits probes on its
	// own schedule.
	ErrCircuitOpen = errors.New("cloud: circuit breaker open")
	// ErrCorrupt reports that a downloaded block's content failed its
	// integrity check (CRC-32C mismatch against the checksum stamped
	// in metadata, or reconstructed bytes failing the segment SHA-256).
	// Blocks are immutable, so retrying the same copy cannot help —
	// the block must be re-fetched from a different cloud and the bad
	// copy repaired by the scrubber.
	ErrCorrupt = errors.New("cloud: block content corrupt")
)

// IsRetryable reports whether err is worth retrying: transient
// failures are, outages and quota/not-found errors are not.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrTransient)
}

// ValidatePath checks that a cloud path is well-formed: non-empty,
// slash-separated, no empty, "." or ".." elements, and no leading
// slash. UniDrive generates all paths itself, so a violation is a
// programming error surfaced early.
func ValidatePath(path string) error {
	if path == "" {
		return errors.New("cloud: empty path")
	}
	if strings.HasPrefix(path, "/") {
		return fmt.Errorf("cloud: path %q must be relative", path)
	}
	for _, elem := range strings.Split(path, "/") {
		switch elem {
		case "":
			return fmt.Errorf("cloud: path %q has empty element", path)
		case ".", "..":
			return fmt.Errorf("cloud: path %q has relative element %q", path, elem)
		}
	}
	return nil
}

// SplitPath returns the directory and base components of a cloud
// path. The directory of a top-level file is "".
func SplitPath(path string) (dir, base string) {
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return "", path
	}
	return path[:i], path[i+1:]
}

// JoinPath joins path elements with slashes, skipping empty elements.
func JoinPath(elems ...string) string {
	parts := make([]string, 0, len(elems))
	for _, e := range elems {
		if e != "" {
			parts = append(parts, e)
		}
	}
	return strings.Join(parts, "/")
}

// RetryPolicy controls the retry helper used by the transfer engine
// for transient Web API failures.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (including the first).
	MaxAttempts int
	// BaseDelay is the first backoff delay; it doubles per attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff delay.
	MaxDelay time.Duration
	// After waits between attempts: the backoff waits on the returned
	// channel OR the retried call's context, so a cancellation
	// interrupts the wait instead of sleeping it out. Wire it to the
	// injected clock's After (vclock.Clock.After); nil means no wait.
	After func(time.Duration) <-chan time.Time
}

// DefaultRetryPolicy mirrors the implementation's behaviour of
// retrying failed block transfers a few times before rescheduling the
// block to a different cloud, its backoff waiting on after.
func DefaultRetryPolicy(after func(time.Duration) <-chan time.Time) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   200 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		After:       after,
	}
}

// Retry runs op until it succeeds, returns a non-retryable error, the
// context is cancelled, or MaxAttempts is exhausted. It returns the
// last error observed.
func Retry(ctx context.Context, p RetryPolicy, op func() error) error {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	delay := p.BaseDelay
	var err error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if ctxErr := ctx.Err(); ctxErr != nil {
			if err != nil {
				return err
			}
			return ctxErr
		}
		if err = op(); err == nil {
			return nil
		}
		if !IsRetryable(err) {
			return err
		}
		if attempt < p.MaxAttempts-1 && delay > 0 && p.After != nil {
			select {
			case <-ctx.Done():
				// Cancelled mid-backoff: the loop head returns the last
				// observed error on the next iteration.
			case <-p.After(delay):
			}
			delay *= 2
			if p.MaxDelay > 0 && delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
	}
	return fmt.Errorf("cloud: retries exhausted after %d attempts: %w", p.MaxAttempts, err)
}
