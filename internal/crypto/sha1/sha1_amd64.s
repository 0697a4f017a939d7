#include "textflag.h"

// SHA-NI compression for a run of whole 64-byte blocks. X0 holds the
// working variables A..D (A in the top lane), X1/X2 alternate as E plus
// the next four schedule words, X3-X6 are the rolling message schedule
// W[4k..4k+3] (W[4k] in the top lane), and X8/X9 keep the chaining
// value for the feed-forward. Each SHA1RNDS4 runs four rounds; its
// immediate picks the stage's f and k (rounds 0-19, 20-39, 40-59,
// 60-79). Schedule vector k >= 4 is
//     SHA1MSG2(SHA1MSG1(W[k-4], W[k-3]) ^ W[k-2], W[k-1]),
// spread over groups k-3, k-2 and k-1 so it is ready at group k.

// Reverses all 16 bytes: big-endian words, first word in the top lane.
DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// func cpuidSHA() (ecx1, ebx7 uint32)
TEXT ·cpuidSHA(SB), NOSPLIT, $0-8
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ecx1+0(FP)
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ebx7+4(FP)
	RET

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DI
	SHRQ $6, DI
	JZ   done

	MOVOU  (AX), X0
	PSHUFD $0x1b, X0, X0      // A..D, A in the top lane
	PXOR   X1, X1
	PINSRD $3, 16(AX), X1     // E in the top lane
	MOVOU  flipMask<>(SB), X7

block:
	MOVO X0, X8
	MOVO X1, X9

	// Rounds 0-3.
	MOVOU     (SI), X3
	PSHUFB    X7, X3
	PADDD     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7.
	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	// Rounds 8-11.
	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 12-15.
	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 16-19.
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 20-23.
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 24-27.
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 28-31.
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 32-35.
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 36-39.
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 40-43.
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 44-47.
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 48-51.
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 52-55.
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 56-59.
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 60-63.
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $3, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 64-67: the last SHA1MSG1 (W[76..79]).
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $3, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 68-71: the last XOR.
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	// Rounds 72-75: the last SHA1MSG2.
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	// Rounds 76-79.
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	// Feed-forward: E = rol30(A four rounds back) + saved E; A..D add.
	SHA1NEXTE X9, X1
	PADDD     X8, X0

	ADDQ $64, SI
	DECQ DI
	JNZ  block

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (AX)
	PEXTRD $3, X1, 16(AX)

done:
	RET
