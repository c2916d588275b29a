// SHA-1 block function on the SHA extensions (SHA-NI): SHA1RNDS4 runs
// four rounds per instruction, SHA1NEXTE derives the next group's E
// from the current A, and SHA1MSG1/SHA1MSG2 (with a PXOR) extend the
// message schedule sixteen words ahead. The round sequence is the one
// in Intel's "New Instructions Supporting the Secure Hash Algorithm on
// Intel Architecture Processors" (2013).
//
// Register use: X0 = ABCD (A in the high lane), X1/X2 = E0/E1, which
// alternate as the E+W operand and the saved ABCD of each group,
// X3..X6 = the message schedule W[i..i+3] ring, X7 = the byte-swap
// shuffle, X8/X9 = the block's starting ABCD and E.

#include "textflag.h"

// Reverses all 16 bytes: four big-endian message words become host
// order with W[0] in the high lane, where SHA1RNDS4 expects it.
DATA flipMask<>+0x00(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+0x08(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// func blockSHANI(h *[5]uint32, p []byte)
// Folds every whole 64-byte block of p into h; a tail shorter than 64
// bytes is ignored (the Go caller pads the message).
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	ANDQ $~63, DX
	JZ   done
	ADDQ SI, DX // end of the last whole block

	MOVOU  (DI), X0
	PSHUFD $0x1b, X0, X0 // h[0..3] with A in the high lane
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1 // E in the high lane, the rest zero
	MOVOU  flipMask<>(SB), X7

loop:
	MOVO X0, X8
	MOVO X1, X9

	// rounds 0-3
	MOVOU (SI), X3
	PSHUFB X7, X3
	PADDL X3, X1
	MOVO X0, X2
	SHA1RNDS4 $0, X1, X0

	// rounds 4-7
	MOVOU 16(SI), X4
	PSHUFB X7, X4
	SHA1NEXTE X4, X2
	MOVO X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1 X4, X3

	// rounds 8-11
	MOVOU 32(SI), X5
	PSHUFB X7, X5
	SHA1NEXTE X5, X1
	MOVO X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1 X5, X4
	PXOR X5, X3

	// rounds 12-15
	MOVOU 48(SI), X6
	PSHUFB X7, X6
	SHA1NEXTE X6, X2
	MOVO X0, X1
	SHA1MSG2 X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1 X6, X5
	PXOR X6, X4

	// rounds 16-19
	SHA1NEXTE X3, X1
	MOVO X0, X2
	SHA1MSG2 X3, X4
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1 X3, X6
	PXOR X3, X5

	// rounds 20-23
	SHA1NEXTE X4, X2
	MOVO X0, X1
	SHA1MSG2 X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1 X4, X3
	PXOR X4, X6

	// rounds 24-27
	SHA1NEXTE X5, X1
	MOVO X0, X2
	SHA1MSG2 X5, X6
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1 X5, X4
	PXOR X5, X3

	// rounds 28-31
	SHA1NEXTE X6, X2
	MOVO X0, X1
	SHA1MSG2 X6, X3
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1 X6, X5
	PXOR X6, X4

	// rounds 32-35
	SHA1NEXTE X3, X1
	MOVO X0, X2
	SHA1MSG2 X3, X4
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1 X3, X6
	PXOR X3, X5

	// rounds 36-39
	SHA1NEXTE X4, X2
	MOVO X0, X1
	SHA1MSG2 X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1 X4, X3
	PXOR X4, X6

	// rounds 40-43
	SHA1NEXTE X5, X1
	MOVO X0, X2
	SHA1MSG2 X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1 X5, X4
	PXOR X5, X3

	// rounds 44-47
	SHA1NEXTE X6, X2
	MOVO X0, X1
	SHA1MSG2 X6, X3
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1 X6, X5
	PXOR X6, X4

	// rounds 48-51
	SHA1NEXTE X3, X1
	MOVO X0, X2
	SHA1MSG2 X3, X4
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1 X3, X6
	PXOR X3, X5

	// rounds 52-55
	SHA1NEXTE X4, X2
	MOVO X0, X1
	SHA1MSG2 X4, X5
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1 X4, X3
	PXOR X4, X6

	// rounds 56-59
	SHA1NEXTE X5, X1
	MOVO X0, X2
	SHA1MSG2 X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1 X5, X4
	PXOR X5, X3

	// rounds 60-63
	SHA1NEXTE X6, X2
	MOVO X0, X1
	SHA1MSG2 X6, X3
	SHA1RNDS4 $3, X2, X0
	SHA1MSG1 X6, X5
	PXOR X6, X4

	// rounds 64-67
	SHA1NEXTE X3, X1
	MOVO X0, X2
	SHA1MSG2 X3, X4
	SHA1RNDS4 $3, X1, X0
	SHA1MSG1 X3, X6
	PXOR X3, X5

	// rounds 68-71
	SHA1NEXTE X4, X2
	MOVO X0, X1
	SHA1MSG2 X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR X4, X6

	// rounds 72-75
	SHA1NEXTE X5, X1
	MOVO X0, X2
	SHA1MSG2 X5, X6
	SHA1RNDS4 $3, X1, X0

	// rounds 76-79
	SHA1NEXTE X6, X2
	MOVO X0, X1
	SHA1RNDS4 $3, X2, X0

	// fold the block into the running state
	SHA1NEXTE X9, X1
	PADDL     X8, X0

	ADDQ $64, SI
	CMPQ SI, DX
	JB   loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
	RET
