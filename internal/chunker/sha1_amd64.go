//go:build amd64 && !purego

package chunker

import (
	"crypto/sha1"
	"encoding/binary"

	"unidrive/internal/gf256"
)

// The SHA-NI backend (see sha1_amd64.s). It exists because the
// toolchain's crypto/sha1 has no SHA-NI path on amd64 and runs at
// about half this kernel's speed; once crypto/sha1 uses the SHA
// extensions, delete this file and sha1_amd64.s and let sha1_other.go
// build everywhere.
//
// useSHANI is a variable, not a constant, so tests can force the
// crypto/sha1 path and compare.
var useSHANI = detectSHANI()

//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

// detectSHANI reports whether the CPU has the SHA extensions plus the
// SSSE3 byte shuffle and the SSE4.1 lane insert/extract the kernel
// uses. They are plain SSE-register instructions, so no OS state check
// is needed beyond what amd64 guarantees.
func detectSHANI() bool {
	maxID, _, _, _ := gf256.CPUID(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := gf256.CPUID(1, 0)
	const ssse3 = 1 << 9
	const sse41 = 1 << 19
	if ecx1&ssse3 == 0 || ecx1&sse41 == 0 {
		return false
	}
	_, ebx7, _, _ := gf256.CPUID(7, 0)
	return ebx7&(1<<29) != 0 // SHA
}

// sum returns the SHA-1 digest of data.
func sum(data []byte) [sha1.Size]byte {
	if !useSHANI {
		return sha1.Sum(data)
	}
	h := [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	whole := len(data) &^ 63
	blockSHANI(&h, data[:whole])
	// Padding: 0x80, zeros, then the bit length big-endian in the last
	// eight bytes of one block, or of two when the tail leaves fewer
	// than nine bytes free.
	var tail [128]byte
	n := copy(tail[:], data[whole:])
	tail[n] = 0x80
	end := 64
	if n >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:end], uint64(len(data))<<3)
	blockSHANI(&h, tail[:end])
	var out [sha1.Size]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}
