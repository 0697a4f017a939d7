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

// TestMontExpEquivalence diffs the Montgomery exponentiation against
// the schoolbook oracle and math/big over 10k seeded (x, e, m) triples
// with odd moduli of 1–17 limbs, so the generic kernel and both
// unrolled widths (4 and 8 limbs) run, and exponents of up to three
// limbs, so both schedules (square-and-multiply under 64 bits, the
// window above) run. Three vectors in ten take an adversarial shape:
// m = 2^(64n) − 1, x = m − 1, or x = m − 1 with an all-ones exponent.
func TestMontExpEquivalence(t *testing.T) {
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

// TestMontKernels diffs each unrolled kernel against the generic fused
// kernel and math/big's a·b·R^-1 mod m: the multiply with dst fresh
// and aliasing a, b or both, and the squaring in place against a·a.
// Operands cover random values, all-ones limbs, m = 2^(64n) − 1 and
// a = b = m − 1, and the test insists the final subtraction (t ≥ m
// before it) ran on some vectors at each width.
func TestMontKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, k := range []struct {
		n           int
		mul, square montKernel
	}{{4, montMul4, montSqr4}, {8, montMul8, montSqr8}} {
		n := k.n
		R := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
		subtracted := 0
		for i := 0; i < 2000; i++ {
			var m Int
			switch i % 4 {
			case 0:
				m = allOnes(n)
			default:
				m = Int{limbs: oddModulus(rng, n)}
			}
			if i%8 == 1 {
				m.limbs[n-1] >>= uint(1 + rng.Intn(62)) // top limb short of its top bit
			}
			bm := toBig(m)
			ctx := newMontCtx(m)
			operand := func() ([]uint64, *big.Int) {
				var v *big.Int
				switch rng.Intn(4) {
				case 0:
					v = new(big.Int).Sub(bm, big.NewInt(1))
				case 1:
					v = new(big.Int).Mod(toBig(allOnes(n)), bm)
				default:
					v = new(big.Int).Rand(rng, bm)
				}
				return padLimbs(FromBytes(v.Bytes()).limbs, n), v
			}
			a, ba := operand()
			b, bb := operand()

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

			scratch := make([]uint64, n)
			generic := make([]uint64, n)
			montMulGeneric(generic, a, b, m.limbs, ctx.n0, scratch)
			if !slices.Equal(generic, padLimbs(FromBytes(want.Bytes()).limbs, n)) {
				t.Fatalf("n=%d vector %d: generic %x, math/big %x", n, i, generic, want)
			}
			check := func(name string, got []uint64) {
				t.Helper()
				if !slices.Equal(got, generic) {
					t.Fatalf("n=%d vector %d %s: unrolled %x, generic %x (a=%x b=%x m=%x)",
						n, i, name, got, generic, a, b, m.limbs)
				}
			}
			dst := make([]uint64, n)
			k.mul(dst, a, b, m.limbs, ctx.n0, nil)
			check("fresh dst", dst)
			ac := append([]uint64(nil), a...)
			k.mul(ac, ac, b, m.limbs, ctx.n0, nil)
			check("dst=a", ac)
			bc := append([]uint64(nil), b...)
			k.mul(bc, a, bc, m.limbs, ctx.n0, nil)
			check("dst=b", bc)
			// Squares, in place, against the generic multiply a·a.
			montMulGeneric(generic, a, a, m.limbs, ctx.n0, scratch)
			sq := append([]uint64(nil), a...)
			k.mul(sq, sq, sq, m.limbs, ctx.n0, nil)
			check("mul dst=a=b", sq)
			copy(sq, a)
			k.square(sq, sq, sq, m.limbs, ctx.n0, nil)
			check("square dst=a", sq)
		}
		if subtracted == 0 {
			t.Fatalf("n=%d: no vector needed the final subtraction", n)
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
	if allocs := testing.AllocsPerRun(20, func() { x.ModExp(e, m) }); allocs > 3 {
		t.Fatalf("8-limb ModExp: %.0f allocations, want <= 3", allocs)
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
