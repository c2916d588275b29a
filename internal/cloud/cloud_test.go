package cloud

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestValidatePath(t *testing.T) {
	tests := []struct {
		path    string
		wantErr bool
	}{
		{"file.txt", false},
		{"dir/file.txt", false},
		{"a/b/c", false},
		{"", true},
		{"/abs", true},
		{"a//b", true},
		{"a/./b", true},
		{"a/../b", true},
		{"..", true},
	}
	for _, tt := range tests {
		t.Run(tt.path, func(t *testing.T) {
			err := ValidatePath(tt.path)
			if (err != nil) != tt.wantErr {
				t.Errorf("ValidatePath(%q) error = %v, wantErr %v", tt.path, err, tt.wantErr)
			}
		})
	}
}

func TestSplitPath(t *testing.T) {
	tests := []struct {
		path, dir, base string
	}{
		{"file", "", "file"},
		{"a/file", "a", "file"},
		{"a/b/file", "a/b", "file"},
	}
	for _, tt := range tests {
		dir, base := SplitPath(tt.path)
		if dir != tt.dir || base != tt.base {
			t.Errorf("SplitPath(%q) = (%q, %q), want (%q, %q)", tt.path, dir, base, tt.dir, tt.base)
		}
	}
}

func TestJoinPath(t *testing.T) {
	if got := JoinPath("a", "", "b", "c"); got != "a/b/c" {
		t.Errorf("JoinPath = %q, want a/b/c", got)
	}
	if got := JoinPath("", ""); got != "" {
		t.Errorf("JoinPath of empties = %q, want empty", got)
	}
}

func TestIsRetryable(t *testing.T) {
	if !IsRetryable(fmt.Errorf("wrapped: %w", ErrTransient)) {
		t.Error("wrapped ErrTransient should be retryable")
	}
	for _, err := range []error{ErrNotFound, ErrQuotaExceeded, ErrUnavailable, errors.New("other")} {
		if IsRetryable(err) {
			t.Errorf("%v should not be retryable", err)
		}
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	var slept []time.Duration
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 15 * time.Millisecond,
		After: func(d time.Duration) <-chan time.Time {
			slept = append(slept, d)
			ch := make(chan time.Time, 1)
			ch <- time.Time{}
			return ch
		}}
	err := Retry(context.Background(), p, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("boom: %w", ErrTransient)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry failed: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	// Backoff doubles and is capped by MaxDelay.
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 15*time.Millisecond {
		t.Errorf("slept = %v, want [10ms 15ms]", slept)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryPolicy{MaxAttempts: 5}, func() error {
		calls++
		return ErrNotFound
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (no retry of permanent errors)", calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryPolicy{MaxAttempts: 3}, func() error {
		calls++
		return ErrTransient
	})
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, ErrTransient) {
		t.Errorf("exhaustion error should wrap the last error, got %v", err)
	}
}

func TestRetryHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, RetryPolicy{MaxAttempts: 3}, func() error {
		calls++
		return ErrTransient
	})
	if calls != 0 {
		t.Errorf("calls = %d, want 0 with pre-cancelled context", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRetryContextCancelledMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, RetryPolicy{MaxAttempts: 5}, func() error {
		calls++
		cancel()
		return ErrTransient
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	// The last op error is preferred over the bare context error.
	if !errors.Is(err, ErrTransient) {
		t.Errorf("err = %v, want ErrTransient", err)
	}
}

func TestRetryZeroAttemptsNormalized(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryPolicy{}, func() error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Errorf("err=%v calls=%d, want nil/1", err, calls)
	}
}

func TestDefaultRetryPolicy(t *testing.T) {
	p := DefaultRetryPolicy(nil)
	if p.MaxAttempts < 2 {
		t.Error("default policy should retry at least once")
	}
	if p.BaseDelay <= 0 || p.MaxDelay < p.BaseDelay {
		t.Errorf("default delays malformed: base=%v max=%v", p.BaseDelay, p.MaxDelay)
	}
}

func TestRetryBackoffInterruptibleByContext(t *testing.T) {
	// A cancellation arriving DURING the backoff wait must end the
	// retry loop promptly, not after the full backoff elapses.
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	err := Retry(ctx, RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Hour,
		After:       time.After,
	}, func() error {
		calls++
		// Cancel from the side once the first attempt has failed; the
		// loop is about to enter an hour-long backoff.
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		return ErrTransient
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry blocked %v in backoff despite cancellation", elapsed)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (no attempt after cancellation)", calls)
	}
	if !errors.Is(err, ErrTransient) {
		t.Errorf("err = %v, want the last op error", err)
	}
}

func TestErrCircuitOpenNotRetryable(t *testing.T) {
	if IsRetryable(ErrCircuitOpen) {
		t.Fatal("ErrCircuitOpen must not be retried against the same cloud")
	}
	calls := 0
	err := Retry(context.Background(), RetryPolicy{MaxAttempts: 5}, func() error {
		calls++
		return fmt.Errorf("guard says: %w", ErrCircuitOpen)
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (fail fast)", calls)
	}
	if !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("err = %v, want ErrCircuitOpen", err)
	}
}
