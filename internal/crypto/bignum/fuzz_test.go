package bignum

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzBignum cross-checks the limb arithmetic against math/big on the
// same byte inputs: add, sub, mul, div/mod and modexp all have to
// agree byte-for-byte. This is the fuzz-shaped twin of the conform
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

	f.Fuzz(func(t *testing.T, ab, bb, mb []byte) {
		// Bound the work per input so the fuzzer explores instead of
		// grinding one giant multiply.
		if len(ab) > 64 {
			ab = ab[:64]
		}
		if len(bb) > 64 {
			bb = bb[:64]
		}
		if len(mb) > 24 {
			mb = mb[:24]
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

		// Keep the exponent small (16 bits) so modexp stays cheap per
		// exec; width coverage comes from x and m, not e.
		e := y.Mod(FromUint64(1 << 16))
		ebig := new(big.Int).Mod(yb, big.NewInt(1<<16))
		diff("modexp", x.ModExp(e, m), new(big.Int).Exp(xb, ebig, mbig))
	})
}
