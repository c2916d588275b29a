package qlock

import (
	"strings"
	"testing"
	"time"

	"unidrive/internal/vclock"
)

// FuzzLockFlagName checks flag ownership against the names a manager
// writes: for any device and any clock reading, the name lockFileName
// builds parses back to that device, and no other device owns it —
// neither a prefix of it nor a name it is a prefix of.
func FuzzLockFlagName(f *testing.F) {
	f.Add("a", int64(1_700_000_000_000_000_000))
	f.Add("a_b", int64(5))
	f.Add("dev_1_2.3", int64(-42))
	f.Add("lock_", int64(0))
	f.Fuzz(func(t *testing.T, device string, nanos int64) {
		if device == "" {
			return // New refuses it
		}
		name := New(newClouds(1), fastCfg(vclock.NewManual(time.Unix(0, nanos)), device)).lockFileName()
		if got, ok := flagDevice(name); !ok || got != device {
			t.Fatalf("flag %q parses to device %q (ok=%v), want %q", name, got, ok, device)
		}
		others := []string{device + "_", device + "_0", "_" + device}
		if i := strings.LastIndexByte(device, '_'); i >= 0 {
			others = append(others, device[:i], device[i+1:])
		}
		for _, other := range others {
			if other != device && ownedBy(name, other) {
				t.Fatalf("device %q owns %q, the flag of %q", other, name, device)
			}
		}
	})
}
