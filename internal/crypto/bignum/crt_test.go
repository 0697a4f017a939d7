package bignum

import (
	crand "crypto/rand"
	"math/big"
	"math/rand"
	"testing"
)

// TestCRTExp diffs CRT.Exp against math/big's x^d mod p·q on each
// kernel path, for primes of 1 to 16 limbs, equal and unequal in width
// (so each Montgomery kernel, the reduction's short-input path and
// Garner's p < q and p > q cases all run), and for bases 0, 1, N − 1,
// below p, and random.
func TestCRTExp(t *testing.T) {
	for _, path := range kernelPaths() {
		t.Run(path.name, func(t *testing.T) { withADX(path.adx, func() { testCRTExp(t) }) })
	}
}

func testCRTExp(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, bits := range [][2]int{{64, 64}, {128, 128}, {256, 256}, {256, 192}, {320, 448}, {512, 512}, {1024, 1024}} {
		p, err := crand.Prime(rng, bits[0])
		if err != nil {
			t.Fatal(err)
		}
		q, err := crand.Prime(rng, bits[1])
		if err != nil {
			t.Fatal(err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		one := big.NewInt(1)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(big.NewInt(65537), phi)
		if d == nil {
			continue
		}
		dp := new(big.Int).Mod(d, new(big.Int).Sub(p, one))
		dq := new(big.Int).Mod(d, new(big.Int).Sub(q, one))
		qinv := new(big.Int).ModInverse(q, p)
		fromBig := func(v *big.Int) Int { return FromBytes(v.Bytes()) }
		key := NewCRT(fromBig(p), fromBig(q), fromBig(dp), fromBig(dq), fromBig(qinv))
		for i := 0; i < 40; i++ {
			var x *big.Int
			switch i {
			case 0:
				x = big.NewInt(0)
			case 1:
				x = big.NewInt(1)
			case 2:
				x = new(big.Int).Sub(n, one)
			case 3:
				x = new(big.Int).Rand(rng, p)
			default:
				x = new(big.Int).Rand(rng, n)
			}
			got := key.Exp(fromBig(x))
			want := new(big.Int).Exp(x, d, n)
			if got.Cmp(fromBig(want)) != 0 {
				t.Fatalf("%d×%d bits, vector %d: CRT %s, math/big %s", bits[0], bits[1], i, got, want)
			}
		}
	}
}

// TestCRTExpAllocs pins CRT.Exp at its one allocation for a 1024-bit
// key's shape (8-limb primes).
func TestCRTExpAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	p, _ := crand.Prime(rng, 512)
	q, _ := crand.Prime(rng, 512)
	fromBig := func(v *big.Int) Int { return FromBytes(v.Bytes()) }
	one := big.NewInt(1)
	dp := new(big.Int).Rand(rng, new(big.Int).Sub(p, one))
	dq := new(big.Int).Rand(rng, new(big.Int).Sub(q, one))
	key := NewCRT(fromBig(p), fromBig(q), fromBig(dp), fromBig(dq), fromBig(new(big.Int).ModInverse(q, p)))
	x := fromBig(new(big.Int).Rand(rng, new(big.Int).Mul(p, q)))
	for _, path := range kernelPaths() {
		withADX(path.adx, func() {
			if n := testing.AllocsPerRun(20, func() { key.Exp(x) }); n > 1 {
				t.Errorf("%s path: CRT.Exp makes %.0f allocations, want 1", path.name, n)
			}
		})
	}
}
