package bignum

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

func randInt(rng *rand.Rand, maxLimbs int) Int {
	n := 1 + rng.Intn(maxLimbs)
	l := make([]uint64, n)
	for i := range l {
		l[i] = rng.Uint64()
	}
	return Int{limbs: norm(l)}
}

// allOnes is 2^(64n) − 1: n all-ones limbs.
func allOnes(n int) Int {
	l := make([]uint64, n)
	for i := range l {
		l[i] = ^uint64(0)
	}
	return Int{limbs: l}
}

func toBig(x Int) *big.Int { return new(big.Int).SetBytes(x.Bytes()) }

// kernelPath is one kernel set newMontCtx can pick: montMulGeneric at
// every width, or the ADX assembly.
type kernelPath struct {
	name string
	adx  bool
}

// kernelPaths lists the paths this host can run: generic always, ADX
// where the CPU has it.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{"generic", false}}
	if hasADX {
		paths = append(paths, kernelPath{"adx", true})
	}
	return paths
}

// withADX runs f with newMontCtx choosing the ADX kernels or not.
func withADX(on bool, f func()) {
	defer func(was bool) { hasADX = was }(hasADX)
	hasADX = on
	f()
}

// TestKernelChoice pins which kernel pair newMontCtx picks per width
// on each path: kindGeneric at every width on the portable path, the
// assembly at multiples of 4 limbs on the ADX path.
func TestKernelChoice(t *testing.T) {
	for _, path := range kernelPaths() {
		for _, c := range []struct {
			n       int
			adxKind montKind
		}{
			{4, kindADX4},
			{8, kindADX8},
			{12, kindADX},
			{16, kindADX},
			{9, kindGeneric},
		} {
			var ctx montCtx
			withADX(path.adx, func() { ctx = newMontCtx(allOnes(c.n)) })
			want := kindGeneric
			if path.adx {
				want = c.adxKind
			}
			if ctx.kind != want {
				t.Errorf("%s path, %d limbs: kernel kind %d, want %d", path.name, c.n, ctx.kind, want)
			}
		}
	}
}

// TestMontExpEquivalence diffs the Montgomery exponentiation against
// the schoolbook oracle and math/big over 10k seeded (x, e, m) triples
// with odd moduli of 1–17 limbs, so every kernel runs (generic at every
// width, and on the ADX path the assembly at 4, 8 and multiples of 4
// limbs), and exponents of up to three limbs, so
// both schedules (square-and-multiply under 64 bits, the window above)
// run. Three vectors in ten take an adversarial shape: m = 2^(64n) − 1,
// x = m − 1, or x = m − 1 with an all-ones exponent. Each kernel path
// runs the same vectors.
func TestMontExpEquivalence(t *testing.T) {
	for _, path := range kernelPaths() {
		t.Run(path.name, func(t *testing.T) { withADX(path.adx, func() { testMontExpEquivalence(t) }) })
	}
}

func testMontExpEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	for i := 0; i < n; i++ {
		m := randInt(rng, 17)
		if len(m.limbs) == 0 {
			m = One()
		}
		m.limbs = append([]uint64(nil), m.limbs...)
		m.limbs[0] |= 1 // force odd
		x := randInt(rng, 18)
		e := randInt(rng, 3)
		switch i % 50 {
		case 0:
			e = Zero()
		case 1:
			x = Zero()
		case 2:
			e = One()
		}
		switch i % 10 {
		case 3:
			m = allOnes(1 + rng.Intn(17))
		case 4:
			x = m.Sub(One())
		case 5:
			x, e = m.Sub(One()), allOnes(1+rng.Intn(2))
		}
		got := x.ModExp(e, m)
		want := new(big.Int).Exp(toBig(x), toBig(e), toBig(m))
		if got.Cmp(FromBytes(want.Bytes())) != 0 {
			t.Fatalf("vector %d: x=%s e=%s m=%s: mont %s != math/big %s", i, x, e, m, got, want)
		}
		if i%10 == 0 {
			if want := x.modExpBasic(e, m); got.Cmp(want) != 0 {
				t.Fatalf("vector %d: x=%s e=%s m=%s: mont %s != basic %s",
					i, x, e, m, got, want)
			}
		}
	}
}

// TestMontKernels diffs the kernels newMontCtx picks, on each kernel
// path, against the generic fused kernel and math/big's a·b·R^-1 mod m:
// the multiply with dst fresh and aliasing a, b or both, and the
// squaring in place against a·a. Widths are 4 and 8 limbs (the
// unrolled assembly) and 12 and 16 (the assembly loop); the generic
// path runs montMulGeneric itself, so there math/big is the oracle.
// Moduli include m = 2^(64n) − 1 and moduli whose top half is all
// ones; operands cover random values, all-ones limbs, m − 1, values
// just below it, and limbs that are mostly all ones. The test insists the final subtraction (t ≥ m before
// it) ran on some vectors at each width.
func TestMontKernels(t *testing.T) {
	for _, path := range kernelPaths() {
		t.Run(path.name, func(t *testing.T) { withADX(path.adx, func() { testMontKernels(t) }) })
	}
}

func testMontKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{4, 8, 12, 16} {
		R := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
		subtracted := 0
		for i := 0; i < 2000; i++ {
			var m Int
			switch i % 4 {
			case 0:
				m = allOnes(n)
			case 2:
				// Within 2^(64·n/2) of R: T reaches R often, so the
				// carries out of the top limb run.
				m = Int{limbs: oddModulus(rng, n)}
				for k := n / 2; k < n; k++ {
					m.limbs[k] = ^uint64(0)
				}
			default:
				m = Int{limbs: oddModulus(rng, n)}
			}
			if i%8 == 1 {
				m.limbs[n-1] >>= uint(1 + rng.Intn(62)) // top limb short of its top bit
			}
			bm := toBig(m)
			ctx := newMontCtx(m)
			scratch := make([]uint64, n)
			ctx.t = scratch
			operand := func() ([]uint64, *big.Int) {
				var v *big.Int
				shape := rng.Intn(6)
				if i%4 == 0 && i%8 != 4 {
					shape = 3 // m = 2^(64n) − 1: mostly all-ones limbs
				}
				switch shape {
				case 0:
					v = new(big.Int).Sub(bm, big.NewInt(1))
				case 1:
					v = new(big.Int).Mod(toBig(allOnes(n)), bm)
				case 2:
					v = new(big.Int).Sub(bm, big.NewInt(2+rng.Int63n(64)))
				case 3:
					// Mostly all-ones limbs: with m = 2^(64n) − 1 these
					// drive the accumulator's top limb to all ones, so
					// the rare carries out of it run at every limb of b.
					l := make([]uint64, n)
					for k := range l {
						if l[k] = rng.Uint64(); rng.Intn(4) != 0 {
							l[k] = ^uint64(0)
						}
					}
					v = new(big.Int).Mod(toBig(Int{limbs: norm(l)}), bm)
				default:
					v = new(big.Int).Rand(rng, bm)
				}
				return padLimbs(FromBytes(v.Bytes()).limbs, n), v
			}
			a, ba := operand()
			b, bb := operand()
			if i%16 == 0 {
				// Low limbs 2^64 − 2 and 2^64 − 1 against m = 2^(64n) − 1:
				// the top limb's carry rides the OF chain at the first
				// limbs of b, which the shapes above leave unexercised.
				a[0], b[0] = ^uint64(0)-1, ^uint64(0)
				b[n-1] >>= 1
				ba, bb = toBig(Int{limbs: norm(slices.Clone(a))}), toBig(Int{limbs: norm(slices.Clone(b))})
			}

			// math/big: a·b·R^-1 mod m, and whether the kernel's t
			// before the final subtraction, (a·b + q·m)/R, reaches m.
			ab := new(big.Int).Mul(ba, bb)
			want := new(big.Int).Mul(ab, new(big.Int).ModInverse(R, bm))
			want.Mod(want, bm)
			q := new(big.Int).Mul(ab, new(big.Int).ModInverse(bm, R))
			q.Sub(R, q.Mod(q, R)).Mod(q, R)
			tt := new(big.Int).Add(ab, q.Mul(q, bm))
			if tt.Rsh(tt, uint(64*n)).Cmp(bm) >= 0 {
				subtracted++
			}

			generic := make([]uint64, n)
			montMulGeneric(generic, a, b, m.limbs, ctx.n0, scratch)
			if !slices.Equal(generic, padLimbs(FromBytes(want.Bytes()).limbs, n)) {
				t.Fatalf("n=%d vector %d: generic %x, math/big %x", n, i, generic, want)
			}
			check := func(name string, got []uint64) {
				t.Helper()
				if !slices.Equal(got, generic) {
					t.Fatalf("n=%d vector %d %s: kernel %x, generic %x (a=%x b=%x m=%x)",
						n, i, name, got, generic, a, b, m.limbs)
				}
			}
			dst := make([]uint64, n)
			ctx.mul(dst, a, b)
			check("fresh dst", dst)
			ac := append([]uint64(nil), a...)
			ctx.mul(ac, ac, b)
			check("dst=a", ac)
			bc := append([]uint64(nil), b...)
			ctx.mul(bc, a, bc)
			check("dst=b", bc)
			// Squares, in place, against the generic multiply a·a.
			montMulGeneric(generic, a, a, m.limbs, ctx.n0, scratch)
			sq := append([]uint64(nil), a...)
			ctx.mul(sq, sq, sq)
			check("mul dst=a=b", sq)
			copy(sq, a)
			ctx.sqr(sq, sq)
			check("square dst=a", sq)
		}
		if subtracted == 0 {
			t.Fatalf("n=%d: no vector needed the final subtraction", n)
		}
		testSquareCarries(t, rng, n)
	}
}

// sqr8ViaValue is montSqr8ADX as a func value, so a call through it
// takes the ABI wrapper, which leaves other values in the argument
// registers than mul's direct call does. A kernel that skips loading
// an argument and reads a stale register fails one path or the other.
var sqr8ViaValue = montSqr8ADX

// testSquareCarries squares directed operands against m = 2^(64n) − 1
// and diffs the squaring kernel against the generic multiply. With
// that m, n0 is 1 and each reduction row's u is the row's low limb,
// and operands whose limbs are all ones or zero reach the rare carries
// that close every row of the squaring kernel's reduction: out of the
// window's top limb into the stored limb entering it, and out of that
// limb into the next row's ext (a mutation sweep of montSqr8ADX found
// four such ADOXQs that no other vector reached). The
// first operand, all ones under a top limb of 2^63, leaves the first
// cross-product row's OF set, which the next row must clear.
func testSquareCarries(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	m := allOnes(n)
	ctx := newMontCtx(m)
	scratch := make([]uint64, n)
	ctx.t = scratch
	a, want, got := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := 0; i < 3000; i++ {
		for k := range a {
			a[k] = 0
			if i == 0 || rng.Intn(2) == 0 {
				a[k] = ^uint64(0)
			}
		}
		if i == 0 {
			a[n-1] = 1 << 63
		}
		if slices.Equal(a, m.limbs) {
			clear(a) // a must be below m
		}
		montMulGeneric(want, a, a, m.limbs, ctx.n0, scratch)
		copy(got, a)
		ctx.sqr(got, got)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d directed square %d: kernel %x, generic %x (a=%x)", n, i, got, want, a)
		}
		if ctx.kind == kindADX8 {
			sqr8ViaValue(got, a, a, m.limbs, ctx.n0, scratch)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d directed square %d via func value: kernel %x, generic %x (a=%x)", n, i, got, want, a)
			}
		}
	}
}

// padLimbs copies l into a fresh n-limb slice.
func padLimbs(l []uint64, n int) []uint64 {
	out := make([]uint64, n)
	copy(out, l)
	return out
}

// TestModExpAllocs pins the one-slice exponentiation: an 8-limb ModExp
// of a reduced base makes at most three allocations (the scratch
// slice, the result, and slack for the context).
func TestModExpAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m := Int{limbs: oddModulus(rng, 8)}
	x := randInt(rng, 7)
	e := Int{limbs: oddModulus(rng, 8)}
	for _, path := range kernelPaths() {
		withADX(path.adx, func() {
			if allocs := testing.AllocsPerRun(20, func() { x.ModExp(e, m) }); allocs > 3 {
				t.Fatalf("%s path, 8-limb ModExp: %.0f allocations, want <= 3", path.name, allocs)
			}
		})
	}
}

// TestMontExpEvenModulus pins the fallback: even moduli still work.
func TestMontExpEvenModulus(t *testing.T) {
	x := FromUint64(12345)
	e := FromUint64(77)
	m := FromUint64(1 << 20)
	if got, want := x.ModExp(e, m), x.modExpBasic(e, m); got.Cmp(want) != 0 {
		t.Fatalf("even modulus: %s != %s", got, want)
	}
}

func benchModExpInputs() (x, e, m Int) {
	rng := rand.New(rand.NewSource(32))
	// 1024-bit odd modulus, 1024-bit exponent: the RSA private-key shape.
	m = randInt(rng, 16)
	for len(m.limbs) < 16 {
		m.limbs = append(m.limbs, rng.Uint64()|1)
	}
	m.limbs[0] |= 1
	m.limbs[15] |= 1 << 63
	e = randInt(rng, 16)
	for len(e.limbs) < 16 {
		e.limbs = append(e.limbs, rng.Uint64()|1)
	}
	x = randInt(rng, 15)
	return
}

func BenchmarkModExpMont_1024(b *testing.B) {
	x, e, m := benchModExpInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.ModExp(e, m)
	}
}

func BenchmarkModExpBasic_1024(b *testing.B) {
	x, e, m := benchModExpInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.modExpBasic(e, m)
	}
}

// oddModulus draws an n-limb odd modulus with its top bit set.
func oddModulus(rng *rand.Rand, n int) []uint64 {
	m := make([]uint64, n)
	for i := range m {
		m[i] = rng.Uint64()
	}
	m[0] |= 1
	m[n-1] |= 1 << 63
	return m
}

var benchSink []uint64

// BenchmarkMontMul times one Montgomery multiply (a·b) and one
// squaring (a·a) per op at the RSA CRT widths (4 and 8 limbs) and at
// 16 limbs, through the kernels newMontCtx picks for the width.
func BenchmarkMontMul(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(n)))
		ctx := newMontCtx(Int{limbs: oddModulus(rng, n)})
		ctx.t = make([]uint64, n)
		x, y := make([]uint64, n), make([]uint64, n)
		for i := range x {
			x[i], y[i] = rng.Uint64(), rng.Uint64()
		}
		x[n-1] >>= 1
		y[n-1] >>= 1
		b.Run(fmt.Sprintf("limbs=%d/mul", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.mul(x, x, y)
			}
		})
		b.Run(fmt.Sprintf("limbs=%d/sqr", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.sqr(x, x)
			}
		})
		benchSink = x
	}
}
