//go:build ignore

// mont_gen writes mont_amd64.s, the Montgomery kernels for CPUs with
// BMI2 and ADX: the fused CIOS multiply of mont.go fully unrolled and
// hand-scheduled for MULX, ADCX and ADOX at each width in mulWidthsADX,
// a squaring at each width in sqrWidthsADX, and a loop kernel for any
// multiple of 4 limbs. Run it through go generate in this directory:
//
//	go generate ./internal/crypto/bignum
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/bits"
	"os"
)

// mulWidthsADX are the widths that get a fully unrolled assembly
// multiply: the CRT halves of 512-bit (4 limbs) and 1024-bit (8 limbs)
// RSA keys.
var mulWidthsADX = []int{4, 8}

func main() {
	var b bytes.Buffer
	asmFile(&b)
	if err := os.WriteFile("mont_amd64.s", b.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}

// asmFile emits mont_amd64.s: the CPUID probe, montMul<n>ADX for each
// width in mulWidthsADX, montSqr<n>ADX for each in sqrWidthsADX, and
// the loop kernel montMulADX.
func asmFile(b *bytes.Buffer) {
	b.WriteString(`// Code generated by mont_gen.go; DO NOT EDIT.

#include "textflag.h"

// Montgomery kernels for CPUs with BMI2 and ADX. MULXQ forms each
// 128-bit product without touching the flags; ADOXQ adds low halves on
// the OF carry chain and ADCXQ high halves on the CF chain, so the two
// chains run side by side. montMul<n>ADX is the fused CIOS kernel of
// mont.go, fully unrolled, with its n+2 accumulator limbs in
// registers. Per limb of b, one pass adds a·b[i] and a second adds u·m,
// which zeroes the low limb; instead of shifting, the registers are
// renamed, and the zeroed one becomes the new top limb.
// montSqr<n>ADX forms the cross products once, doubles them, adds the
// squares, then reduces. montMulADX runs the two passes as loops over
// blocks of limbs, with the accumulator in t.

// func cpuidADX() (maxLeaf, ebx7 uint32)
TEXT ·cpuidADX(SB), NOSPLIT, $0-8
	XORL AX, AX
	XORL CX, CX
	CPUID
	MOVL AX, maxLeaf+0(FP)
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ebx7+4(FP)
	RET
`)
	for _, n := range mulWidthsADX {
		asmMulKernel(b, n)
	}
	for _, n := range sqrWidthsADX {
		asmSqrKernel(b, n)
	}
	asmLoopKernel(b)
}

// sqrWidthsADX are the widths whose assembly squaring beat the
// assembly multiply of a·a by the 10% a dedicated kernel must show
// (EXPERIMENTS.md E23: 1.14× at 8 limbs, 1.03× at 4, where the multiply
// squares).
var sqrWidthsADX = []int{8}

// asmPool is the registers the accumulator and pointers draw from; DX
// is MULXQ's implicit multiplier, and AX and R14 take its low and high
// halves. BP and SP stay untouched.
var asmPool = []string{"BX", "CX", "SI", "DI", "R8", "R9", "R10", "R11", "R12", "R13", "R15"}

// asmMulKernel emits montMul<n>ADX. The accumulator t0…t(n+1) takes
// the first n+2 registers of asmPool. If four registers are left, they
// hold the a, b and m pointers and n0 for the whole call; otherwise one
// pointer register is reloaded from the argument frame for each pass.
func asmMulKernel(b *bytes.Buffer, n int) {
	p := func(format string, args ...any) { fmt.Fprintf(b, "\t"+format+"\n", args...) }
	const lo, hi = "AX", "R14"
	t := append([]string(nil), asmPool[:n+2]...)
	rest := asmPool[n+2:]
	held := len(rest) >= 4

	fmt.Fprintf(b, "\n// func montMul%dADX(dst, a, b, m []uint64, n0 uint64, t []uint64)\n", n)
	fmt.Fprintf(b, "TEXT ·montMul%dADX(SB), NOSPLIT, $0-128\n", n)
	var aPtr, bPtr, mPtr, n0Reg string
	if held {
		aPtr, bPtr, mPtr, n0Reg = rest[0], rest[1], rest[2], rest[3]
		p("MOVQ a_base+24(FP), %s", aPtr)
		p("MOVQ b_base+48(FP), %s", bPtr)
		p("MOVQ m_base+72(FP), %s", mPtr)
		p("MOVQ n0+96(FP), %s", n0Reg)
	}
	// ptr returns the register holding the named operand's base,
	// loading it from the frame first when it is not held.
	ptr := func(held, name string, off int) string {
		if held != "" {
			return held
		}
		p("MOVQ %s_base+%d(FP), %s", name, off, rest[0])
		return rest[0]
	}
	// pass emits T += DX·src: DX·src[j] goes into t[j] (low half, OF
	// chain) and t[j+1] (high half, CF chain), then both chains'
	// carries are flushed into t[n] and t[n+1].
	pass := func(src string) {
		for j := 0; j < n; j++ {
			p("MULXQ %d(%s), %s, %s", 8*j, src, lo, hi)
			p("ADOXQ %s, %s", lo, t[j])
			p("ADCXQ %s, %s", hi, t[j+1])
		}
		p("MOVQ $0, %s", lo)
		p("ADOXQ %s, %s", lo, t[n])
		p("ADCXQ %s, %s", lo, t[n+1])
		p("ADOXQ %s, %s", lo, t[n+1])
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "\n\t// Limb %d of b: T += a·b[%d].\n", i, i)
		if held {
			p("MOVQ %d(%s), DX", 8*i, bPtr)
		} else {
			p("MOVQ b_base+48(FP), DX")
			p("MOVQ %d(DX), DX", 8*i)
		}
		src := ptr(aPtr, "a", 24)
		if i == 0 {
			// T is zero: a·b[0] on one ADD/ADC chain, no reads of T.
			p("MULXQ 0(%s), %s, %s", src, t[0], t[1])
			for j := 1; j < n; j++ {
				p("MULXQ %d(%s), %s, %s", 8*j, src, lo, t[j+1])
				op := "ADCQ"
				if j == 1 {
					op = "ADDQ"
				}
				p("%s %s, %s", op, lo, t[j])
			}
			p("ADCQ $0, %s", t[n])
			p("XORQ %s, %s", t[n+1], t[n+1])
		} else {
			p("XORQ %s, %s", lo, lo)
			pass(src)
		}
		fmt.Fprintf(b, "\t// T += u·m with u = t0·n0, which zeroes t0.\n")
		if held {
			p("MOVQ %s, DX", n0Reg)
		} else {
			p("MOVQ n0+96(FP), DX")
		}
		p("IMULQ %s, DX", t[0])
		src = ptr(mPtr, "m", 72)
		p("XORQ %s, %s", lo, lo)
		pass(src)
		t = append(t[1:], t[0])
	}
	// T < 2m in t0…tn. Save it in dst, subtract m in place, and reload
	// it where that borrowed.
	fmt.Fprintf(b, "\n\t// dst = T − m, or T if that borrows.\n")
	p("MOVQ dst_base+0(FP), DX")
	for j := 0; j < n; j++ {
		p("MOVQ %s, %d(DX)", t[j], 8*j)
	}
	src := ptr(mPtr, "m", 72)
	for j := 0; j < n; j++ {
		op := "SBBQ"
		if j == 0 {
			op = "SUBQ"
		}
		p("%s %d(%s), %s", op, 8*j, src, t[j])
	}
	p("SBBQ $0, %s", t[n])
	for j := 0; j < n; j++ {
		p("CMOVQCS %d(DX), %s", 8*j, t[j])
		p("MOVQ %s, %d(DX)", t[j], 8*j)
	}
	p("RET")
}

// loopBlock is the limb count asmLoopKernel unrolls per loop trip, a
// power of two; the kernel serves widths that are a multiple of it.
const loopBlock = 4

// asmLoopKernel emits montMulADX, the same two passes per limb of b for
// any width that is a multiple of loopBlock, with the accumulator's low
// n limbs in t and its top two in R9 and R10. Each pass walks the
// operand in blocks of loopBlock limbs: per limb, MULXQ, ADCXQ of the
// previous high half, ADOXQ of t[j], and a store. Between blocks both
// carry chains are flushed into the carry word (which cannot overflow:
// it is at most the multiplier) so the loop counter may clobber the
// flags. The second pass stores limb j at t[j-1], shifting T as it goes.
func asmLoopKernel(b *bytes.Buffer) {
	p := func(format string, args ...any) { fmt.Fprintf(b, "\t"+format+"\n", args...) }
	label := func(name string) { fmt.Fprintf(b, "\n%s:\n", name) }
	// block emits one block of a pass: src[k]·DX plus t[k] for k <
	// loopBlock, stored shift limbs lower. The carry word starts and
	// ends in R14 (skipFirst: starts nowhere, the block's first limb
	// being the one that cancels); R15 takes the other high half.
	block := func(shift int, skipFirst bool) {
		p("XORQ BX, BX")
		c, h := "R14", "R15"
		for k := 0; k < loopBlock; k++ {
			p("MULXQ %d(SI), AX, %s", 8*k, h)
			if skipFirst && k == 0 {
				// The low limb cancels: only its carry is wanted.
				p("ADOXQ 0(DI), AX")
			} else {
				p("ADCXQ %s, AX", c)
				p("ADOXQ %d(DI), AX", 8*k)
				p("MOVQ AX, %d(DI)", 8*(k-shift))
			}
			c, h = h, c
		}
		p("ADCXQ BX, R14")
		p("ADOXQ BX, R14")
		p("LEAQ %d(SI), SI", 8*loopBlock)
		p("LEAQ %d(DI), DI", 8*loopBlock)
	}
	fmt.Fprintf(b, `
// func montMulADX(dst, a, b, m []uint64, n0 uint64, t []uint64)
//
// Registers: DX multiplier, AX and R14/R15 product halves and carry
// word, SI operand, DI accumulator, CX block count, BX zero, R9 and R10
// the top accumulator limbs, R11 blocks per pass, R12 limbs of b left,
// R13 the next limb of b.
TEXT ·montMulADX(SB), NOSPLIT, $0-128
	MOVQ m_len+80(FP), R11
	MOVQ R11, R12
	SHRQ $%d, R11
	MOVQ b_base+48(FP), R13
	XORQ BX, BX
	XORQ R9, R9
	XORQ R10, R10
	MOVQ t_base+104(FP), DI
	MOVQ R11, CX
`, bits.TrailingZeros(loopBlock))
	label("mulADXclear")
	for k := 0; k < loopBlock; k++ {
		p("MOVQ BX, %d(DI)", 8*k)
	}
	p("LEAQ %d(DI), DI", 8*loopBlock)
	p("DECQ CX")
	p("JNZ mulADXclear")

	label("mulADXlimb")
	fmt.Fprintf(b, "\t// T += a·b[i]; T's top limb t[n+1] is zero here.\n")
	p("MOVQ (R13), DX")
	p("LEAQ 8(R13), R13")
	p("MOVQ a_base+24(FP), SI")
	p("MOVQ t_base+104(FP), DI")
	p("MOVQ R11, CX")
	p("XORQ R14, R14")
	label("mulADXpass1")
	block(0, false)
	p("DECQ CX")
	p("JNZ mulADXpass1")
	p("ADDQ R14, R9")
	p("ADCQ $0, R10")

	fmt.Fprintf(b, "\t// T = (T + u·m)/2^64 with u = t[0]·n0: limb j is stored at t[j-1].\n")
	p("MOVQ m_base+72(FP), SI")
	p("MOVQ t_base+104(FP), DI")
	p("MOVQ n0+96(FP), DX")
	p("IMULQ (DI), DX")
	block(1, true)
	p("MOVQ R11, CX")
	p("DECQ CX")
	p("JZ mulADXtop")
	label("mulADXpass2")
	block(1, false)
	p("DECQ CX")
	p("JNZ mulADXpass2")
	label("mulADXtop")
	p("ADDQ R14, R9")
	p("ADCQ $0, R10")
	p("MOVQ R9, -8(DI)")
	p("MOVQ R10, R9")
	p("XORQ R10, R10")
	p("DECQ R12")
	p("JNZ mulADXlimb")

	fmt.Fprintf(b, "\n\t// dst = T − m, or T if that borrows. DECQ leaves CF alone.\n")
	p("MOVQ t_base+104(FP), SI")
	p("MOVQ m_base+72(FP), R13")
	p("MOVQ dst_base+0(FP), DI")
	p("MOVQ m_len+80(FP), CX")
	p("CLC")
	label("mulADXsub")
	p("MOVQ (SI), AX")
	p("SBBQ (R13), AX")
	p("MOVQ AX, (DI)")
	p("LEAQ 8(SI), SI")
	p("LEAQ 8(R13), R13")
	p("LEAQ 8(DI), DI")
	p("DECQ CX")
	p("JNZ mulADXsub")
	p("SBBQ $0, R9")
	p("MOVQ t_base+104(FP), SI")
	p("MOVQ dst_base+0(FP), DI")
	p("MOVQ m_len+80(FP), CX")
	label("mulADXselect")
	p("MOVQ (DI), AX")
	p("CMOVQCS (SI), AX")
	p("MOVQ AX, (DI)")
	p("LEAQ 8(SI), SI")
	p("LEAQ 8(DI), DI")
	p("DECQ CX")
	p("JNZ mulADXselect")
	p("RET")
}

// asmSqrKernel emits montSqr<n>ADX, dst = a·a·R^-1 mod m, in three
// phases. The cross products a[i]·a[j], i < j, run row by row in a
// register window that drops the two limbs each row finishes into a
// 2n-limb stack buffer. A single pass over that buffer doubles it
// (ADCXQ r, r) and adds the squares a[i]² (ADOXQ), leaving limbs 0…n
// in registers and storing the rest. The reduction then adds u·m at
// limb i for each i < n, in a window of n+1 registers that takes the
// next stored limb in the register the row zeroed; the carry out of
// that limb waits in ext for the next row.
func asmSqrKernel(b *bytes.Buffer, n int) {
	p := func(format string, args ...any) { fmt.Fprintf(b, "\t"+format+"\n", args...) }
	const lo, hi = "AX", "R14"
	free := append([]string(nil), asmPool...)
	take := func() string {
		r := free[0]
		free = free[1:]
		return r
	}
	give := func(r string) { free = append(free, r) }
	slot := func(k int) string { return fmt.Sprintf("%d(SP)", 8*k) }

	fmt.Fprintf(b, "\n// func montSqr%dADX(dst, a, b, m []uint64, n0 uint64, t []uint64)\n", n)
	fmt.Fprintf(b, "TEXT ·montSqr%dADX(SB), NOSPLIT, $%d-128\n", n, 16*n)
	aPtr := take()
	p("MOVQ a_base+24(FP), %s", aPtr)

	// Cross products. s maps a limb position to its register.
	fmt.Fprintf(b, "\t// Cross products a[i]·a[j], i < j.\n")
	s := map[int]string{}
	p("MOVQ 0(%s), DX", aPtr)
	for k := 1; k <= n; k++ {
		s[k] = take()
	}
	p("MULXQ 8(%s), %s, %s", aPtr, s[1], s[2])
	for j := 2; j < n; j++ {
		p("MULXQ %d(%s), %s, %s", 8*j, aPtr, lo, s[j+1])
		op := "ADCQ"
		if j == 2 {
			op = "ADDQ"
		}
		p("%s %s, %s", op, lo, s[j])
	}
	if n > 2 {
		p("ADCQ $0, %s", s[n])
	}
	spill := func(k int) {
		p("MOVQ %s, %s", s[k], slot(k))
		give(s[k])
		delete(s, k)
	}
	spill(1)
	spill(2)
	for i := 1; i < n-1; i++ {
		p("MOVQ %d(%s), DX", 8*i, aPtr)
		if i == 1 {
			// Row 0's closing ADCQ can leave OF set. Later rows need no
			// XORQ: the row before flushed each chain's carry into its
			// top limb, which cannot carry out, so the flag is clear,
			// or left the carry to this row's chain (below).
			p("XORQ %s, %s", lo, lo)
		}
		s[i+n] = take()
		for j := i + 1; j < n; j++ {
			if j < n-1 {
				p("MULXQ %d(%s), %s, %s", 8*j, aPtr, lo, hi)
				p("ADOXQ %s, %s", lo, s[i+j])
				p("ADCXQ %s, %s", hi, s[i+j+1])
			} else {
				p("MULXQ %d(%s), %s, %s", 8*j, aPtr, lo, s[i+n])
				p("ADOXQ %s, %s", lo, s[i+j])
			}
		}
		// Flush each chain's carry into the row's top limb s[i+n],
		// unless the next row's chain adds into that limb first and
		// takes the carry along: its ADCXQ of a[i+1]·a[i+3]'s high
		// half when i = n-4, its ADOXQ of a[i+1]·a[i+2]'s low half when
		// i = n-3. A one-product row (i = n-2) adds nothing on the CF
		// chain.
		p("MOVQ $0, %s", lo)
		if i < n-2 && i != n-4 {
			p("ADCXQ %s, %s", lo, s[i+n])
		}
		if i != n-3 {
			p("ADOXQ %s, %s", lo, s[i+n])
		}
		spill(2*i + 1)
		spill(2*i + 2)
	}

	// Double and add the squares. Limb 0 is the low half of a[0]²;
	// limb 2n-1 holds no cross product.
	// No XORQ: the last cross-product row ended with an ADOXQ into its
	// top limb and the row before it with an ADCXQ into its own,
	// neither of which can carry out, so CF and OF are already clear.
	fmt.Fprintf(b, "\t// 2·cross + squares; limbs 0…%d stay in registers.\n", n)
	tmp := take()
	for i := 0; i < n; i++ {
		p("MOVQ %d(%s), DX", 8*i, aPtr)
		for k := 2 * i; k <= 2*i+1; k++ {
			r := tmp
			if k <= n {
				s[k] = take()
				r = s[k]
			}
			half := lo
			if k == 2*i {
				if k == 0 {
					p("MULXQ DX, %s, %s", r, hi)
					continue
				}
				p("MULXQ DX, %s, %s", lo, hi)
			} else {
				half = hi
			}
			if k == 2*n-1 {
				p("MOVQ $0, %s", r)
			} else {
				p("MOVQ %s, %s", slot(k), r)
			}
			p("ADCXQ %s, %s", r, r)
			p("ADOXQ %s, %s", half, r)
			if k > n {
				p("MOVQ %s, %s", r, slot(k))
			}
		}
	}
	give(tmp)
	give(aPtr)

	// Reduce: window w holds limbs i…i+n.
	fmt.Fprintf(b, "\t// Reduce: for each i < n, add u·m at limb i with u = s[i]·n0.\n")
	mPtr, ext := take(), take()
	p("MOVQ m_base+72(FP), %s", mPtr)
	p("XORQ %s, %s", ext, ext)
	w := make([]string, n+1)
	for k := range w {
		w[k] = s[k]
	}
	for i := 0; i < n; i++ {
		p("MOVQ n0+96(FP), DX")
		p("IMULQ %s, DX", w[0])
		p("XORQ %s, %s", lo, lo)
		for j := 0; j < n; j++ {
			p("MULXQ %d(%s), %s, %s", 8*j, mPtr, lo, hi)
			p("ADOXQ %s, %s", lo, w[j])
			p("ADCXQ %s, %s", hi, w[j+1])
		}
		// Limb i+n+1 enters in w[0], now zero, taking this row's
		// carries and the last row's ext.
		p("MOVQ $0, %s", lo)
		p("ADOXQ %s, %s", lo, w[n])
		if i+n+1 < 2*n {
			p("MOVQ %s, %s", slot(i+n+1), w[0])
		}
		p("ADCXQ %s, %s", ext, w[0])
		p("ADOXQ %s, %s", lo, w[0])
		if i < n-1 {
			if i > 0 {
				// Row 0 skips this: ext is still zero from its XORQ.
				p("MOVQ $0, %s", ext)
			}
			p("ADCXQ %s, %s", lo, ext)
			p("ADOXQ %s, %s", lo, ext)
		}
		w = append(w[1:], w[0])
	}
	fmt.Fprintf(b, "\n\t// dst = T − m, or T if that borrows.\n")
	p("MOVQ dst_base+0(FP), DX")
	for j := 0; j < n; j++ {
		p("MOVQ %s, %d(DX)", w[j], 8*j)
	}
	for j := 0; j < n; j++ {
		op := "SBBQ"
		if j == 0 {
			op = "SUBQ"
		}
		p("%s %d(%s), %s", op, 8*j, mPtr, w[j])
	}
	p("SBBQ $0, %s", w[n])
	for j := 0; j < n; j++ {
		p("CMOVQCS %d(DX), %s", 8*j, w[j])
		p("MOVQ %s, %d(DX)", w[j], 8*j)
	}
	p("RET")
}
