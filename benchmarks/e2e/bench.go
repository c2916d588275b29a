package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"syscall"
	"time"

	"unidrive/internal/core"
	"unidrive/internal/localfs"
)

// passKind says what one sync pass was asked to do.
type passKind int

const (
	passCommit passKind = iota // device A commits local changes
	passApply                  // device B applies pending cloud changes
	passIdle                   // device B polls with nothing pending
)

func (k passKind) String() string { return [...]string{"commit", "apply", "idle"}[k] }

// passRec is what the driver measured around one sync pass.
type passRec struct {
	id   int64
	kind passKind
	dev  string
	op   string // commit passes: "add", "edit", "delete" or "bulk"
	// start and end are nanoseconds since the run's origin.
	start, end int64
	wall       time.Duration
	// avail is core's AvailableDuration (commit passes only).
	avail time.Duration
	// cpu is the whole process's user+system time across the pass. One
	// device is active at a time, so it is the pass's own cost plus the
	// in-process servers' and the runtime's.
	cpu       time.Duration
	userBytes int64
	traffic   traffic
	failed    bool
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// bench is the closed-loop driver: one goroutine, one device active at
// a time. It generates A's edits from the seed, runs the passes, checks
// after every apply that B holds A's bytes, and keeps the records.
type bench struct {
	ctx    context.Context
	wl     workload
	seed   int64
	w      *world
	tr     *tracer // nil outside the traced run
	origin time.Time
	rng    *rand.Rand
	// setups holds the duration in seconds of every set-up so far.
	setups []float64
	// folded accumulates the per-world counters of the traced run.
	folded folded

	// seconds is how long the measured part was asked to run; deadline
	// ends the time-boxed loops; quick divides every minimum sample
	// count by ten.
	seconds  float64
	deadline time.Time
	quick    bool

	recording bool // false during set-up: warm passes are not samples
	passes    []passRec
	nextID    int64
	attempted int
	failed    int
	failures  []string

	// pending are the paths A touched since B last applied.
	pending map[string]bool
	scratch []byte
}

// freshWorld tears the current world down, builds a new one and runs
// the workload's set-up in it, timing the whole as one more setup_s
// sample. Nothing done here is a measured pass.
func (b *bench) freshWorld() error {
	if b.w != nil {
		b.fold()
		b.w.close()
	}
	recording := b.recording
	b.recording = false
	b.pending = make(map[string]bool)
	t0 := time.Now()
	w, err := newWorld(b.ctx, worldConfig{wan: b.wl.wan, seed: b.seed, trace: b.tr})
	if err != nil {
		return err
	}
	b.w = w
	if err := b.wl.setup(b); err != nil {
		return err
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	b.recording = recording
	if b.tr != nil {
		b.folded.base = b.readBaseline()
	}
	return nil
}

// atLeast scales a minimum sample count for -quick.
func (b *bench) atLeast(n int) int {
	if b.quick {
		return (n + 9) / 10
	}
	return n
}

// more reports whether a measured loop that has done `done` units
// should run another: until both the minimum and the deadline are met.
func (b *bench) more(done, minimum int) bool {
	return done < b.atLeast(minimum) || time.Now().Before(b.deadline)
}

// write puts size fresh seeded random bytes at path in A's folder.
func (b *bench) write(path string, size int) error {
	if cap(b.scratch) < size {
		b.scratch = make([]byte, size)
	}
	data := b.scratch[:size]
	b.rng.Read(data)
	b.pending[path] = true
	return b.w.a.mem.WriteFile(path, data, time.Now())
}

// remove deletes path from A's folder.
func (b *bench) remove(path string) error {
	b.pending[path] = true
	return b.w.a.mem.Remove(path)
}

func (b *bench) fail(p *passRec, format string, args ...any) {
	p.failed = true
	b.failures = append(b.failures, fmt.Sprintf("pass %d (%s %s): ", p.id, p.dev, p.kind)+fmt.Sprintf(format, args...))
}

// pass runs one sync pass on dev and measures around it.
func (b *bench) pass(dev *device, kind passKind, op string, userBytes int64, run func() (core.SyncReport, error)) (*passRec, core.SyncReport) {
	b.nextID++
	p := passRec{id: b.nextID, kind: kind, dev: dev.name, op: op, userBytes: userBytes}
	if b.tr != nil && b.recording {
		b.tr.pass.Store(p.id) // spans of set-up passes stay unowned and are dropped
	}
	before := dev.traffic()
	cpu0 := cpuTime()
	t0 := time.Now()
	rep, err := run()
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.traffic = dev.traffic().sub(before)
	if b.tr != nil {
		b.tr.pass.Store(0)
	}
	p.start = int64(t0.Sub(b.origin))
	p.end = p.start + int64(p.wall)
	p.avail = rep.AvailableDuration
	if err != nil {
		b.fail(&p, "%v", err)
	}
	// The record is appended by the caller's finish, after its checks.
	return &p, rep
}

func (b *bench) finish(p *passRec) {
	b.attempted++
	if p.failed {
		b.failed++
	}
	if b.recording {
		b.passes = append(b.passes, *p)
	}
}

// commitDirty commits the named paths from A with one SyncDirty.
func (b *bench) commitDirty(op string, userBytes int64, paths ...string) {
	p, rep := b.pass(b.w.a, passCommit, op, userBytes, func() (core.SyncReport, error) {
		return b.w.a.client.SyncDirty(b.ctx, paths)
	})
	if !p.failed && rep.LocalChanges != len(paths) {
		b.fail(p, "committed %d changes, want %d", rep.LocalChanges, len(paths))
	}
	b.finish(p)
}

// commitScan commits whatever a full scan of A's folder finds, with one
// SyncOnce.
func (b *bench) commitScan(op string, userBytes int64, changes int) {
	p, rep := b.pass(b.w.a, passCommit, op, userBytes, func() (core.SyncReport, error) {
		return b.w.a.client.SyncOnce(b.ctx)
	})
	if !p.failed && rep.LocalChanges != changes {
		b.fail(p, "committed %d changes, want %d", rep.LocalChanges, changes)
	}
	b.finish(p)
}

// apply catches B up with one SyncRemote and checks that every path A
// touched since the last apply now hashes the same on both devices (or
// is absent on both).
func (b *bench) apply() {
	paths := make([]string, 0, len(b.pending))
	var userBytes int64
	for path := range b.pending {
		paths = append(paths, path)
		if fi, err := b.w.a.mem.Stat(path); err == nil {
			userBytes += fi.Size
		}
	}
	sort.Strings(paths)
	p, _ := b.pass(b.w.b, passApply, "", userBytes, func() (core.SyncReport, error) {
		return b.w.b.client.SyncRemote(b.ctx)
	})
	for _, path := range paths {
		if err := sameContent(b.w.a.mem, b.w.b.mem, path); err != nil && !p.failed {
			b.fail(p, "%v", err)
		}
	}
	b.pending = make(map[string]bool)
	b.finish(p)
}

// idle polls n times from B when nothing is pending: the cost every
// device pays every sync interval. The poll is short and its latency is
// one draw of the slowest cloud's jitter, so a steady median needs
// about a hundred samples, more than there are rounds.
func (b *bench) idle(n int) {
	for i := 0; i < n; i++ {
		p, rep := b.pass(b.w.b, passIdle, "", 0, func() (core.SyncReport, error) {
			return b.w.b.client.SyncRemote(b.ctx)
		})
		if !p.failed && rep.CloudChanges+rep.LocalChanges != 0 {
			b.fail(p, "idle poll moved %d changes", rep.CloudChanges+rep.LocalChanges)
		}
		b.finish(p)
	}
}

// sameContent compares path on two folders by SHA-256; absent on both
// counts as equal.
func sameContent(a, b localfs.Folder, path string) error {
	da, errA := a.ReadFile(path)
	db, errB := b.ReadFile(path)
	goneA, goneB := errors.Is(errA, localfs.ErrNotExist), errors.Is(errB, localfs.ErrNotExist)
	switch {
	case goneA && goneB:
		return nil
	case goneA != goneB:
		return fmt.Errorf("%s: deleted on one device only (A gone=%v, B gone=%v)", path, goneA, goneB)
	case errA != nil:
		return errA
	case errB != nil:
		return errB
	}
	if sha256.Sum256(da) != sha256.Sum256(db) {
		return fmt.Errorf("%s: B's bytes differ from A's", path)
	}
	return nil
}
