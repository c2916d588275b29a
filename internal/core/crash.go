package core

import (
	"errors"
	"sync"
)

// CrashPoint names a seeded abort site inside a sync pass. The crash
// harness models the process dying at the protocol's dangerous
// moments: the pass stops mutating state and returns ErrCrashInjected,
// leaving folder, journal, and clouds exactly as a killed process
// would (in-memory state is discarded by restarting the client, which
// is how the recovery tests use it).
type CrashPoint string

// Seeded crash sites, in pass order.
const (
	// CrashMidUpload aborts the pass's upload, before it is available,
	// once N blocks have landed: coded blocks exist in the clouds that
	// no metadata references.
	CrashMidUpload CrashPoint = "mid-upload"
	// CrashPreCommit aborts after the quorum lock is acquired but
	// before the metadata commit. The lock round may run beside the
	// upload, but the pass returns the crash only once the batch is
	// available: the full availability set is uploaded and entirely
	// unreferenced.
	CrashPreCommit CrashPoint = "pre-commit"
	// CrashPostCommit aborts after a lock hold's metadata commit but
	// before the journal records it (the upload's reliability tail is
	// cut short with it): a pass's own intent looks uncommitted while
	// the image already holds the changes, and the intents whose owed
	// placements the hold recorded are still there.
	CrashPostCommit CrashPoint = "post-commit"
	// CrashMidApply aborts the write stage after N files have been
	// written: the folder is half old, half new.
	CrashMidApply CrashPoint = "mid-apply"
	// CrashInTail aborts a committing hold's tail before its block
	// deletes, cancelling a commit pass's upload batch still running
	// there: the pass has returned and moved v_o, the blocks its commit
	// released are still on the clouds, what its batch landed after the
	// commit is named by no metadata, and its intent is still committed,
	// with the released segments journaled.
	CrashInTail CrashPoint = "in-tail"
)

// ErrCrashInjected is returned by a pass aborted at an armed crash
// point.
var ErrCrashInjected = errors.New("core: crash injected")

// crashState is the armed crash point; at most one is armed at a time
// and it fires exactly once.
type crashState struct {
	mu    sync.Mutex
	point CrashPoint
	n     int
	armed bool
}

// ArmCrash arms a one-shot crash at the given point. n parametrizes
// counting points (blocks uploaded for CrashMidUpload, files applied
// for CrashMidApply; ignored elsewhere). Arming replaces any
// previously armed point; tests use it to drive one seeded crash per
// pass.
func (c *Client) ArmCrash(point CrashPoint, n int) {
	c.crash.mu.Lock()
	defer c.crash.mu.Unlock()
	c.crash.point = point
	c.crash.n = n
	c.crash.armed = true
}

// crashNow fires (and disarms) the crash if point is armed. Used at
// non-counting sites.
func (c *Client) crashNow(point CrashPoint) bool {
	_, armed := c.crashThreshold(point)
	c.disarmCrash(point)
	return armed
}

// crashThreshold returns the armed count for a counting crash point
// without firing it; armed is false when that point is not armed.
func (c *Client) crashThreshold(point CrashPoint) (n int, armed bool) {
	c.crash.mu.Lock()
	defer c.crash.mu.Unlock()
	if !c.crash.armed || c.crash.point != point {
		return 0, false
	}
	return c.crash.n, true
}

// disarmCrash consumes a counting crash point once it has fired.
func (c *Client) disarmCrash(point CrashPoint) {
	c.crash.mu.Lock()
	defer c.crash.mu.Unlock()
	if c.crash.armed && c.crash.point == point {
		c.crash.armed = false
	}
}
