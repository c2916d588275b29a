// AVX2 GF(2^8) multiply kernels over the split low/high nibble tables
// (tables.mulLo / tables.mulHi): c·b = mulLo[c][b&15] ^ mulHi[c][b>>4].
// Each coefficient's two 16-byte tables are broadcast into one YMM
// register each, and VPSHUFB performs 32 table lookups per instruction
// — the layout the split tables exist for.

#include "textflag.h"

DATA nibbleMask<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $16

// func mulAddVecAVX2(lo, hi *[16]byte, src, dst *byte, n int)
// dst[i] ^= c*src[i] for i in [0, n); n must be a positive multiple
// of 32 (the Go wrapper guarantees both).
TEXT ·mulAddVecAVX2(SB), NOSPLIT, $0-40
	MOVQ lo+0(FP), AX
	MOVQ hi+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ dst+24(FP), DI
	MOVQ n+32(FP), CX
	VBROADCASTI128 (AX), Y0             // low-nibble table in both lanes
	VBROADCASTI128 (BX), Y1             // high-nibble table in both lanes
	VBROADCASTI128 nibbleMask<>(SB), Y2 // 0x0f mask
	SHRQ $5, CX                         // 32-byte blocks

addloop:
	VMOVDQU (SI), Y3
	VPSRLW  $4, Y3, Y4
	VPAND   Y2, Y3, Y3 // low nibbles
	VPAND   Y2, Y4, Y4 // high nibbles
	VPSHUFB Y3, Y0, Y3 // mulLo[c][low]
	VPSHUFB Y4, Y1, Y4 // mulHi[c][high]
	VPXOR   Y3, Y4, Y3 // c * src
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     addloop

	VZEROUPPER
	RET

// func mulVecAVX2(lo, hi *[16]byte, src, dst *byte, n int)
// dst[i] = c*src[i] (assign form: dst is never read, so dirty pooled
// buffers need no clearing); same constraints as mulAddVecAVX2.
TEXT ·mulVecAVX2(SB), NOSPLIT, $0-40
	MOVQ lo+0(FP), AX
	MOVQ hi+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ dst+24(FP), DI
	MOVQ n+32(FP), CX
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 (BX), Y1
	VBROADCASTI128 nibbleMask<>(SB), Y2
	SHRQ $5, CX

setloop:
	VMOVDQU (SI), Y3
	VPSRLW  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     setloop

	VZEROUPPER
	RET

// func cpuid(op, subop uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL subop+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
// Callers must have verified CPUID.1:ECX.OSXSAVE first.
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
