package bignum

// Declarations for the MULX/ADCX/ADOX kernels in mont_amd64.s, which
// mont_gen.go writes. Each has the kernel contract mont.go states, for
// its width: a, b, m and dst hold exactly that many limbs, t is unused.

// hasADX reports whether the CPU has BMI2 (leaf 7 EBX bit 8, MULX) and
// ADX (bit 19, ADCX and ADOX). newMontCtx reads it; the tests clear it
// to run the portable montMulGeneric on the same host.
var hasADX = func() bool {
	maxLeaf, ebx7 := cpuidADX()
	const want = 1<<8 | 1<<19
	return maxLeaf >= 7 && ebx7&want == want
}()

// cpuidADX returns the highest CPUID leaf and EBX of leaf 7.
func cpuidADX() (maxLeaf, ebx7 uint32)

//go:noescape
func montMul4ADX(dst, a, b, m []uint64, n0 uint64, t []uint64)

//go:noescape
func montMul8ADX(dst, a, b, m []uint64, n0 uint64, t []uint64)

// montMulADX serves any width that is a multiple of 4; its accumulator
// is t.
//
//go:noescape
func montMulADX(dst, a, b, m []uint64, n0 uint64, t []uint64)

// montSqr8ADX is montMul8ADX with b = a, which it does not read.
//
//go:noescape
func montSqr8ADX(dst, a, b, m []uint64, n0 uint64, t []uint64)
