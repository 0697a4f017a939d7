package bignum

import "math/bits"

//go:generate go run mont_gen.go

// Montgomery-form modular exponentiation over 64-bit limbs. The
// schoolbook ModExp in bignum.go squares with a full Mul followed by a
// Knuth long division per step — the exact shape of the
// "difficult-to-port bignum package" the paper's RMC2000 port gave up
// on. The host profile keeps RSA, so the hot path gets the standard
// fix, Montgomery multiplication, in three pieces:
//
//   - Fused CIOS (Coarsely Integrated Operand Scanning) in Go,
//     montMulGeneric, for every width: the portable path. One inner
//     loop per limb of b both adds a[j]·b[i] and folds in u·m[j], on
//     two carry chains, so the n+1-limb accumulator is walked once per
//     limb instead of twice. Operands are resliced to fixed lengths up
//     front so the loop runs without bounds checks. The final
//     subtraction always computes t − m and keeps t only if that
//     borrowed. It squares too, as a·a.
//   - Hand-scheduled assembly where the CPU has BMI2 and ADX
//     (hasADX). mont_gen.go writes mont_amd64.s: the 4- and 8-limb
//     multiplies (the CRT halves of 512- and 1024-bit RSA keys) with
//     the n+2 accumulator limbs in registers, MULXQ products and two
//     carry chains (ADOXQ for low halves, ADCXQ for high), an 8-limb
//     squaring that forms each cross product a[i]·a[j] once, and a
//     loop kernel for any multiple of 4 limbs (16: the public op of a
//     1024-bit key). At 4 limbs the multiply squares too: a dedicated
//     squaring gained 3%, under the 10% it had to show. newMontCtx
//     picks the kernels from hasADX and len(m) once, as a montKind
//     that mul and sqr switch on: a direct call from Go reaches an
//     assembly kernel with no ABI wrapper, where a func value would
//     go through one. Hosts without BMI2 and ADX, and builds off
//     amd64, run montMulGeneric at every width (EXPERIMENTS.md E25
//     prices that against the unrolled Go kernels it replaced).
//   - An exponent schedule that fits the exponent. Exponents under 64
//     bits (the public exponent 65537) use left-to-right square-and-
//     multiply; longer ones use a fixed 4-bit window whose 16-entry
//     table pays for itself only over many nibbles.
//
// ModExp draws R² mod m (by divLoop, the long division DivMod runs),
// the window table and all temporaries from one slice; a CRT key
// (crt.go) computes R² once per prime instead. The schoolbook path
// survives as modExpBasic, an oracle the tests diff against beside
// math/big, and still serves even moduli.
//
// Every kernel computes dst = a·b·R^-1 mod m for R = 2^(64·len(m)),
// given a, b < m and n0 = -m^-1 mod 2^64, with t len(m) limbs of
// scratch: func(dst, a, b, m []uint64, n0 uint64, t []uint64). dst may
// alias a and/or b: the result is written only at the end.

// montKind is the kernel pair a montCtx runs: the multiply, and the
// squaring (a multiply with b = a).
type montKind uint8

const (
	kindGeneric montKind = iota // montMulGeneric for both
	kindADX4                    // montMul4ADX for both
	kindADX8                    // montMul8ADX, montSqr8ADX
	kindADX                     // montMulADX for both, any multiple of 4 limbs
)

// montCtx holds a modulus, its Montgomery constant and the kernels for
// its width.
type montCtx struct {
	m    []uint64
	n0   uint64
	kind montKind
	t    []uint64 // kernel scratch, set by expInto
}

func newMontCtx(m Int) montCtx {
	ctx := montCtx{m: m.limbs}
	switch n := len(m.limbs); {
	case hasADX && n == 4:
		ctx.kind = kindADX4
	case hasADX && n == 8:
		ctx.kind = kindADX8
	case hasADX && n%4 == 0:
		ctx.kind = kindADX
	}
	// Newton iteration for m[0]^-1 mod 2^64: an odd m0 is its own
	// inverse mod 8, and each step doubles the valid bit count
	// (3 → 6 → 12 → 24 → 48 → 96 ≥ 64).
	m0 := m.limbs[0]
	inv := m0
	for i := 0; i < 5; i++ {
		inv *= 2 - m0*inv
	}
	ctx.n0 = -inv
	return ctx
}

func (ctx *montCtx) mul(dst, a, b []uint64) {
	switch ctx.kind {
	case kindADX8:
		montMul8ADX(dst, a, b, ctx.m, ctx.n0, ctx.t)
	case kindADX4:
		montMul4ADX(dst, a, b, ctx.m, ctx.n0, ctx.t)
	case kindADX:
		montMulADX(dst, a, b, ctx.m, ctx.n0, ctx.t)
	default:
		montMulGeneric(dst, a, b, ctx.m, ctx.n0, ctx.t)
	}
}

func (ctx *montCtx) sqr(dst, a []uint64) {
	switch ctx.kind {
	case kindADX8:
		montSqr8ADX(dst, a, a, ctx.m, ctx.n0, ctx.t)
	case kindADX4:
		montMul4ADX(dst, a, a, ctx.m, ctx.n0, ctx.t)
	case kindADX:
		montMulADX(dst, a, a, ctx.m, ctx.n0, ctx.t)
	default:
		montMulGeneric(dst, a, a, ctx.m, ctx.n0, ctx.t)
	}
}

// montMulGeneric is the fused CIOS kernel for any width. The
// accumulator is t[:n] plus its top limb in a local.
func montMulGeneric(dst, a, b, m []uint64, n0 uint64, t []uint64) {
	n := len(m)
	a, b, dst, t = a[:n], b[:n], dst[:n], t[:n]
	clear(t)
	var top uint64
	for _, bi := range b {
		// Limb 0 fixes u so the reduction's low limb cancels to zero.
		hi, lo := bits.Mul64(a[0], bi)
		lo, c := bits.Add64(lo, t[0], 0)
		c1 := hi + c
		u := lo * n0
		hi, lo2 := bits.Mul64(u, m[0])
		_, c = bits.Add64(lo2, lo, 0)
		c2 := hi + c
		for j := 1; j < n; j++ {
			hi, lo = bits.Mul64(a[j], bi)
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, c1, 0)
			c1 = hi + c
			hi, lo2 = bits.Mul64(u, m[j])
			lo2, c = bits.Add64(lo2, lo, 0)
			hi += c
			t[j-1], c = bits.Add64(lo2, c2, 0)
			c2 = hi + c
		}
		s, c := bits.Add64(top, c1, 0)
		s, c3 := bits.Add64(s, c2, 0)
		t[n-1], top = s, c+c3
	}
	// t < 2m: keep t − m unless it borrowed.
	var br uint64
	for i := range dst {
		dst[i], br = bits.Sub64(t[i], m[i], br)
	}
	if _, br = bits.Sub64(top, 0, br); br != 0 {
		copy(dst, t)
	}
}

// setRR writes R² mod m, the factor that takes a value into
// Montgomery form, into rr. It divides 2^(128n) by m with divLoop in
// s, 3n+2 limbs of scratch, so it allocates nothing.
func (ctx *montCtx) setRR(rr, s []uint64) {
	m := ctx.m
	n := len(m)
	if n == 1 {
		rr[0] = bits.Rem64(bits.Rem64(1, 0, m[0]), 0, m[0])
		return
	}
	// Normalize as DivMod does: shift m so its top bit is set, and
	// 2^(128n) by the same amount.
	shift := uint(bits.LeadingZeros64(m[n-1]))
	v, u := s[:n], s[n:3*n+2]
	for i := n - 1; i > 0; i-- {
		v[i] = m[i]<<shift | m[i-1]>>(64-shift)
	}
	v[0] = m[0] << shift
	clear(u)
	u[2*n] = 1 << shift
	divLoop(u, v, nil)
	for i := range rr {
		rr[i] = u[i]>>shift | u[i+1]<<(64-shift)
	}
}

// modExpMont returns x^e mod m for x < m, m odd and greater than one.
func modExpMont(x, e, m Int) Int {
	ctx := newMontCtx(m)
	n := len(m.limbs)
	buf := make([]uint64, n+max(3*n+2, expLen(n, e)))
	rr, s := buf[:n], buf[n:]
	ctx.setRR(rr, s[:3*n+2])
	out := make([]uint64, n)
	ctx.expInto(out, x.limbs, e, rr, s)
	return Int{limbs: norm(out)}
}

// expLen is the scratch expInto needs for an n-limb modulus and
// exponent e: the kernel's, x and the accumulator in Montgomery form,
// and for a windowed exponent the table x^2 … x^15.
func expLen(n int, e Int) int {
	if e.BitLen() >= 64 {
		return 17 * n
	}
	return 3 * n
}

// expInto sets out, len(m) limbs, to x^e mod m for x < m of at most
// len(m) limbs, m odd and greater than one. rr is R² mod m; s is at
// least expLen limbs of scratch. It allocates nothing.
func (ctx *montCtx) expInto(out, x []uint64, e Int, rr, s []uint64) {
	n := len(ctx.m)
	if e.IsZero() {
		clear(out)
		out[0] = 1
		return
	}
	ebits := e.BitLen()
	carve := func() []uint64 {
		c := s[:n:n]
		s = s[n:]
		return c
	}
	ctx.t = carve()
	xm, acc := carve(), carve()
	clear(acc)
	copy(acc, x)
	ctx.mul(xm, acc, rr)

	if ebits < 64 {
		// Left-to-right square-and-multiply from the top set bit.
		copy(acc, xm)
		for i := ebits - 2; i >= 0; i-- {
			ctx.sqr(acc, acc)
			if e.Bit(i) == 1 {
				ctx.mul(acc, acc, xm)
			}
		}
	} else {
		// A fixed 4-bit window. win[w] = x^w in Montgomery form; win[0]
		// is never read.
		var win [16][]uint64
		win[1] = xm
		for w := 2; w < 16; w++ {
			win[w] = carve()
			ctx.mul(win[w], win[w-1], xm)
		}
		nibbles := (ebits + 3) / 4
		nibble := func(i int) uint {
			return e.Bit(4*i+3)<<3 | e.Bit(4*i+2)<<2 | e.Bit(4*i+1)<<1 | e.Bit(4*i)
		}
		copy(acc, win[nibble(nibbles-1)]) // the top nibble is nonzero
		for i := nibbles - 2; i >= 0; i-- {
			for s := 0; s < 4; s++ {
				ctx.sqr(acc, acc)
			}
			if w := nibble(i); w != 0 {
				ctx.mul(acc, acc, win[w])
			}
		}
	}
	// Leave Montgomery form: multiply by plain 1.
	clear(xm)
	xm[0] = 1
	ctx.mul(out, acc, xm)
}
