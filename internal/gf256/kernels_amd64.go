//go:build amd64 && !purego

package gf256

// The AVX2 backend: VPSHUFB over the split nibble tables, 32 products
// per instruction (see kernels_amd64.s). hasAVX2 is a variable, not a
// constant, so tests can force the portable path and compare.
var hasAVX2 = detectAVX2()

//go:noescape
func mulAddVecAVX2(lo, hi *[16]byte, src, dst *byte, n int)

//go:noescape
func mulVecAVX2(lo, hi *[16]byte, src, dst *byte, n int)

// cpuid executes the CPUID instruction for leaf op, subleaf subop.
func cpuid(op, subop uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// detectAVX2 reports whether the CPU and OS support AVX2: the feature
// bit itself, plus OSXSAVE/AVX and the OS actually saving the XMM+YMM
// state across context switches.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if eax, _ := xgetbv0(); eax&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// accelMinLen is the slice length below which the vector call is not
// worth its fixed cost and the Go word kernels run instead.
const accelMinLen = 64

// accelAvailable reports whether the vector kernels are usable; the
// fused Go kernel is skipped in favor of per-row vector passes then.
func accelAvailable() bool { return hasAVX2 }

// accelMulAdd runs dst[i] ^= c*src[i] over the longest 32-byte
// multiple prefix with the AVX2 nibble kernel and returns the number
// of bytes handled (0 when the vector path is off or the slice is too
// short). The caller finishes the tail.
func accelMulAdd(c byte, src, dst []byte) int {
	if !hasAVX2 || len(src) < accelMinLen {
		return 0
	}
	n := len(src) &^ 31
	mulAddVecAVX2(&_tab.mulLo[c], &_tab.mulHi[c], &src[0], &dst[0], n)
	return n
}

// accelMul is the assign-form twin of accelMulAdd: dst[i] = c*src[i],
// never reading dst.
func accelMul(c byte, src, dst []byte) int {
	if !hasAVX2 || len(src) < accelMinLen {
		return 0
	}
	n := len(src) &^ 31
	mulVecAVX2(&_tab.mulLo[c], &_tab.mulHi[c], &src[0], &dst[0], n)
	return n
}
