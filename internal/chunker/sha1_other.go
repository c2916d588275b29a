//go:build !amd64 || purego

package chunker

import "crypto/sha1"

// No SHA kernel on this platform: crypto/sha1 is the fastest path.

// sum returns the SHA-1 digest of data.
func sum(data []byte) [sha1.Size]byte { return sha1.Sum(data) }
