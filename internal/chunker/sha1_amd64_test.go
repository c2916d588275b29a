//go:build amd64 && !purego

package chunker

import "testing"

// TestSegmentIDFallbackMatchesSHA1 turns the SHA-NI kernel off and
// runs the same checks, so the crypto/sha1 path machines without the
// SHA extensions take is exercised here too.
func TestSegmentIDFallbackMatchesSHA1(t *testing.T) {
	saved := useSHANI
	defer func() { useSHANI = saved }()
	useSHANI = false
	checkSegmentIDs(t)
}
