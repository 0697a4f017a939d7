#include "textflag.h"

// AES-NI kernels for the FIPS-197 geometry (16-byte blocks). Round keys
// are (nr+1)*16 bytes in byte order; every kernel walks them with a
// round counter, so one body serves nr = 10, 12 and 14. Keys, blocks
// and the IV are loaded with MOVOU: no operand needs 16-byte alignment.

// func cpuidECX1() uint32
TEXT ·cpuidECX1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func encryptBlockNI(nr int, rk, dst, src *byte)
TEXT ·encryptBlockNI(SB), NOSPLIT, $0-32
	MOVQ   nr+0(FP), CX
	MOVQ   rk+8(FP), AX
	MOVQ   dst+16(FP), DX
	MOVQ   src+24(FP), BX
	MOVOU  (BX), X0
	MOVOU  (AX), X1
	PXOR   X1, X0
	DECQ   CX

encRound:
	ADDQ   $16, AX
	MOVOU  (AX), X1
	AESENC X1, X0
	DECQ   CX
	JNZ    encRound
	MOVOU      16(AX), X1
	AESENCLAST X1, X0
	MOVOU      X0, (DX)
	RET

// func decryptBlockNI(nr int, dk, dst, src *byte)
// dk is the equivalent-inverse schedule built by expandDecNI.
TEXT ·decryptBlockNI(SB), NOSPLIT, $0-32
	MOVQ   nr+0(FP), CX
	MOVQ   dk+8(FP), AX
	MOVQ   dst+16(FP), DX
	MOVQ   src+24(FP), BX
	MOVOU  (BX), X0
	MOVOU  (AX), X1
	PXOR   X1, X0
	DECQ   CX

decRound:
	ADDQ   $16, AX
	MOVOU  (AX), X1
	AESDEC X1, X0
	DECQ   CX
	JNZ    decRound
	MOVOU      16(AX), X1
	AESDECLAST X1, X0
	MOVOU      X0, (DX)
	RET

// func expandDecNI(nr int, ek, dk *byte)
// dk[0] = ek[nr], dk[i] = InvMixColumns(ek[nr-i]) for 0 < i < nr,
// dk[nr] = ek[0], each entry one 16-byte round key.
TEXT ·expandDecNI(SB), NOSPLIT, $0-24
	MOVQ   nr+0(FP), CX
	MOVQ   ek+8(FP), AX
	MOVQ   dk+16(FP), DX
	MOVQ   CX, BX
	SHLQ   $4, BX
	ADDQ   AX, BX          // BX = &ek[nr]
	MOVOU  (BX), X0
	MOVOU  X0, (DX)
	DECQ   CX

imcRound:
	SUBQ   $16, BX
	ADDQ   $16, DX
	MOVOU  (BX), X0
	AESIMC X0, X0
	MOVOU  X0, (DX)
	DECQ   CX
	JNZ    imcRound
	MOVOU  (AX), X0
	MOVOU  X0, 16(DX)
	RET

// func encryptCBCNI(nr int, rk, iv *byte, buf []byte)
// Serial CBC: each block's input is the previous block's output, so
// the loop runs at AESENC latency. The first round key is folded into
// the plaintext before the chaining XOR, off the dependency chain.
TEXT ·encryptCBCNI(SB), NOSPLIT, $0-48
	MOVQ   nr+0(FP), CX
	MOVQ   rk+8(FP), AX
	MOVQ   iv+16(FP), BX
	MOVQ   buf_base+24(FP), SI
	MOVQ   buf_len+32(FP), DI
	SHRQ   $4, DI          // DI = blocks
	JZ     cbcEncDone
	MOVOU  (BX), X0        // chaining value
	MOVOU  (AX), X2        // round key 0

cbcEncBlock:
	MOVOU  (SI), X1
	PXOR   X2, X1
	PXOR   X1, X0
	MOVQ   AX, R8
	MOVQ   CX, R9
	DECQ   R9

cbcEncRound:
	ADDQ   $16, R8
	MOVOU  (R8), X1
	AESENC X1, X0
	DECQ   R9
	JNZ    cbcEncRound
	MOVOU      16(R8), X1
	AESENCLAST X1, X0
	MOVOU      X0, (SI)
	ADDQ       $16, SI
	DECQ       DI
	JNZ        cbcEncBlock

cbcEncDone:
	RET

// func decryptCBCNI(nr int, dk, iv *byte, buf []byte)
// CBC decryption has no chain through the cipher, so eight blocks run
// interleaved (X0-X7) to keep the AESDEC pipeline full; the remaining
// zero to seven blocks go one at a time. X9 carries the ciphertext
// block before the current group.
TEXT ·decryptCBCNI(SB), NOSPLIT, $0-48
	MOVQ   nr+0(FP), CX
	MOVQ   dk+8(FP), AX
	MOVQ   iv+16(FP), BX
	MOVQ   buf_base+24(FP), SI
	MOVQ   buf_len+32(FP), DI
	SHRQ   $4, DI          // DI = blocks
	MOVOU  (BX), X9

cbcDec8Check:
	CMPQ   DI, $8
	JB     cbcDec1Check
	MOVOU  (SI), X0
	MOVOU  16(SI), X1
	MOVOU  32(SI), X2
	MOVOU  48(SI), X3
	MOVOU  64(SI), X4
	MOVOU  80(SI), X5
	MOVOU  96(SI), X6
	MOVOU  112(SI), X7
	MOVO   X7, X10         // next group's chaining block
	MOVOU  (AX), X8
	PXOR   X8, X0
	PXOR   X8, X1
	PXOR   X8, X2
	PXOR   X8, X3
	PXOR   X8, X4
	PXOR   X8, X5
	PXOR   X8, X6
	PXOR   X8, X7
	MOVQ   AX, R8
	MOVQ   CX, R9
	DECQ   R9

cbcDec8Round:
	ADDQ   $16, R8
	MOVOU  (R8), X8
	AESDEC X8, X0
	AESDEC X8, X1
	AESDEC X8, X2
	AESDEC X8, X3
	AESDEC X8, X4
	AESDEC X8, X5
	AESDEC X8, X6
	AESDEC X8, X7
	DECQ   R9
	JNZ    cbcDec8Round
	MOVOU      16(R8), X8
	AESDECLAST X8, X0
	AESDECLAST X8, X1
	AESDECLAST X8, X2
	AESDECLAST X8, X3
	AESDECLAST X8, X4
	AESDECLAST X8, X5
	AESDECLAST X8, X6
	AESDECLAST X8, X7

	// The group's ciphertext is still in buf: read blocks 0-6 as the
	// chaining values for 1-7 before any plaintext overwrites them.
	PXOR   X9, X0
	MOVOU  (SI), X8
	PXOR   X8, X1
	MOVOU  16(SI), X8
	PXOR   X8, X2
	MOVOU  32(SI), X8
	PXOR   X8, X3
	MOVOU  48(SI), X8
	PXOR   X8, X4
	MOVOU  64(SI), X8
	PXOR   X8, X5
	MOVOU  80(SI), X8
	PXOR   X8, X6
	MOVOU  96(SI), X8
	PXOR   X8, X7
	MOVOU  X0, (SI)
	MOVOU  X1, 16(SI)
	MOVOU  X2, 32(SI)
	MOVOU  X3, 48(SI)
	MOVOU  X4, 64(SI)
	MOVOU  X5, 80(SI)
	MOVOU  X6, 96(SI)
	MOVOU  X7, 112(SI)
	MOVO   X10, X9
	ADDQ   $128, SI
	SUBQ   $8, DI
	JMP    cbcDec8Check

cbcDec1Check:
	TESTQ  DI, DI
	JZ     cbcDecDone

cbcDec1Block:
	MOVOU  (SI), X0
	MOVO   X0, X10
	MOVOU  (AX), X8
	PXOR   X8, X0
	MOVQ   AX, R8
	MOVQ   CX, R9
	DECQ   R9

cbcDec1Round:
	ADDQ   $16, R8
	MOVOU  (R8), X8
	AESDEC X8, X0
	DECQ   R9
	JNZ    cbcDec1Round
	MOVOU      16(R8), X8
	AESDECLAST X8, X0
	PXOR       X9, X0
	MOVOU      X0, (SI)
	MOVO       X10, X9
	ADDQ       $16, SI
	DECQ       DI
	JNZ        cbcDec1Block

cbcDecDone:
	RET
