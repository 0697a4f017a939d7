package bignum

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzBignum cross-checks the limb arithmetic against math/big on the
// same byte inputs: add, sub, mul, div/mod and modexp all have to
// agree byte-for-byte, modexp on every kernel path the host has. This
// is the fuzz-shaped twin of the conform
// bignum/differential check; the CI fuzz-smoke matrix runs it for 30s
// per push.
func FuzzBignum(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte{0x01}, []byte{0x01}, []byte{0x03})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{0x01, 0x00, 0x00, 0x00, 0x00}, []byte{0x0d})
	// Limb-boundary shapes: exactly 4, 8 and 9 bytes straddle the
	// 2^32 and 2^64 seams.
	f.Add(bytes.Repeat([]byte{0xab}, 8), bytes.Repeat([]byte{0xcd}, 4), bytes.Repeat([]byte{0xef}, 9))
	f.Add(bytes.Repeat([]byte{0xff}, 16), bytes.Repeat([]byte{0xff}, 16), bytes.Repeat([]byte{0xff}, 8))
	// Leading zero bytes: normalization stress.
	f.Add([]byte{0x00, 0x00, 0x01}, []byte{0x00, 0x05}, []byte{0x00, 0x00, 0x07})
	// RSA-ish sizes.
	f.Add(bytes.Repeat([]byte{0x5a}, 32), bytes.Repeat([]byte{0xa5}, 24), append([]byte{0x80}, bytes.Repeat([]byte{0x11}, 15)...))
	// Montgomery kernel widths: all-ones 4- and 8-limb moduli (the
	// unrolled assembly), a 9-limb one (generic only), a 16-limb one
	// (the assembly loop kernel), and x = m − 1.
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0x3c}, 10), bytes.Repeat([]byte{0xff}, 32))
	f.Add(bytes.Repeat([]byte{0xff}, 64), bytes.Repeat([]byte{0xff}, 10), bytes.Repeat([]byte{0xff}, 64))
	f.Add(append(bytes.Repeat([]byte{0xc3}, 63), 0xfe), bytes.Repeat([]byte{0x77}, 9), append(bytes.Repeat([]byte{0xc3}, 63), 0xff))
	f.Add(bytes.Repeat([]byte{0x42}, 64), []byte{0x01, 0x00, 0x01}, append([]byte{0x80}, bytes.Repeat([]byte{0x0f}, 71)...))
	f.Add(bytes.Repeat([]byte{0xff}, 64), bytes.Repeat([]byte{0xff}, 10), bytes.Repeat([]byte{0xff}, 128))

	f.Fuzz(func(t *testing.T, ab, bb, mb []byte) {
		// Bound the work per input so the fuzzer explores instead of
		// grinding one giant multiply.
		if len(ab) > 64 {
			ab = ab[:64]
		}
		if len(bb) > 64 {
			bb = bb[:64]
		}
		if len(mb) > 136 {
			mb = mb[:136] // 17 limbs: past every fixed and loop kernel width
		}
		x, y := FromBytes(ab), FromBytes(bb)
		xb, yb := new(big.Int).SetBytes(ab), new(big.Int).SetBytes(bb)

		diff := func(op string, got Int, want *big.Int) {
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: got %x, math/big %x (a=%x b=%x m=%x)",
					op, got.Bytes(), want.Bytes(), ab, bb, mb)
			}
		}

		diff("add", x.Add(y), new(big.Int).Add(xb, yb))
		diff("mul", x.Mul(y), new(big.Int).Mul(xb, yb))

		// Sub is unsigned: order the operands.
		if x.Cmp(y) >= 0 {
			diff("sub", x.Sub(y), new(big.Int).Sub(xb, yb))
		} else {
			diff("sub", y.Sub(x), new(big.Int).Sub(yb, xb))
		}

		m := FromBytes(mb)
		if m.IsZero() {
			return
		}
		mbig := new(big.Int).SetBytes(mb)

		q, r, err := x.DivMod(m)
		if err != nil {
			t.Fatalf("DivMod err on nonzero divisor: %v", err)
		}
		qb, rb := new(big.Int).QuoRem(xb, mbig, new(big.Int))
		diff("div", q, qb)
		diff("mod", r, rb)

		// Keep the exponent under 80 bits so modexp stays cheap per
		// exec while both schedules run: square-and-multiply below 64
		// bits, the 4-bit window from 64 up. Width coverage comes from
		// x and m.
		eMod := new(big.Int).Lsh(big.NewInt(1), 80)
		ebig := new(big.Int).Mod(yb, eMod)
		e := FromBytes(ebig.Bytes())
		want := new(big.Int).Exp(xb, ebig, mbig)
		for _, path := range kernelPaths() {
			withADX(path.adx, func() { diff("modexp/"+path.name, x.ModExp(e, m), want) })
		}
	})
}
