package bignum

import (
	"bytes"
	"testing"
	"testing/quick"
)

// MustDecimal is FromDecimal that panics on error.
func MustDecimal(s string) Int {
	x, err := FromDecimal(s)
	if err != nil {
		panic(err)
	}
	return x
}

func TestFromUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool { return FromUint64(v).Uint64() == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		x := FromBytes(b)
		// strip leading zeros for comparison
		i := 0
		for i < len(b) && b[i] == 0 {
			i++
		}
		return bytes.Equal(x.Bytes(), b[i:]) ||
			(len(b[i:]) == 0 && len(x.Bytes()) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFillBytes(t *testing.T) {
	x := FromUint64(0x1234)
	buf := x.FillBytes(make([]byte, 4))
	if !bytes.Equal(buf, []byte{0, 0, 0x12, 0x34}) {
		t.Errorf("FillBytes = %x", buf)
	}
	defer func() {
		if recover() == nil {
			t.Error("FillBytes into too-small buffer did not panic")
		}
	}()
	x.FillBytes(make([]byte, 1))
}

func TestAddSubAgainstUint64(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := FromUint64(uint64(a)), FromUint64(uint64(b))
		if x.Add(y).Uint64() != uint64(a)+uint64(b) {
			return false
		}
		hi, lo := x, y
		if a < b {
			hi, lo = y, x
		}
		want := uint64(a) - uint64(b)
		if a < b {
			want = uint64(b) - uint64(a)
		}
		return hi.Sub(lo).Uint64() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAgainstUint64(t *testing.T) {
	f := func(a, b uint32) bool {
		return FromUint64(uint64(a)).Mul(FromUint64(uint64(b))).Uint64() ==
			uint64(a)*uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sub with larger subtrahend did not panic")
		}
	}()
	FromUint64(1).Sub(FromUint64(2))
}

// Division invariant: x = q*y + r with 0 <= r < y, for large operands.
func TestDivModInvariant(t *testing.T) {
	f := func(xb, yb []byte) bool {
		x, y := FromBytes(xb), FromBytes(yb)
		if y.IsZero() {
			_, _, err := x.DivMod(y)
			return err == ErrDivByZero
		}
		q, r, err := x.DivMod(y)
		if err != nil {
			return false
		}
		if r.Cmp(y) >= 0 {
			return false
		}
		return q.Mul(y).Add(r).Cmp(x) == 0
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Regression shapes for Algorithm D edge cases: qhat overestimates,
// add-back path, top-limb boundaries.
func TestDivModEdges(t *testing.T) {
	cases := []struct{ x, y string }{
		{"340282366920938463463374607431768211455", "18446744073709551615"}, // 2^128-1 / 2^64-1
		{"340282366920938463463374607431768211456", "18446744073709551616"}, // 2^128 / 2^64
		{"115792089237316195423570985008687907853269984665640564039457584007913129639935", "340282366920938463463374607431768211457"},
		{"6277101735386680763835789423207666416102355444464034512896", "79228162514264337593543950336"},
		{"1000000000000000000000000000000000001", "999999999999999999"},
	}
	for _, tc := range cases {
		x, y := MustDecimal(tc.x), MustDecimal(tc.y)
		q, r, err := x.DivMod(y)
		if err != nil {
			t.Fatalf("%s / %s: %v", tc.x, tc.y, err)
		}
		if q.Mul(y).Add(r).Cmp(x) != 0 || r.Cmp(y) >= 0 {
			t.Errorf("%s / %s: invariant broken (q=%s r=%s)", tc.x, tc.y, q, r)
		}
	}
}

func TestShiftInverse(t *testing.T) {
	f := func(b []byte, nRaw uint8) bool {
		n := int(nRaw % 100)
		x := FromBytes(b)
		return x.Shl(n).Shr(n).Cmp(x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShlIsMulByPowerOfTwo(t *testing.T) {
	x := MustDecimal("123456789012345678901234567890")
	if x.Shl(7).Cmp(x.Mul(FromUint64(128))) != 0 {
		t.Error("Shl(7) != Mul(128)")
	}
}

func TestBitLenAndBit(t *testing.T) {
	if Zero().BitLen() != 0 {
		t.Error("BitLen(0) != 0")
	}
	x := FromUint64(0x8001)
	if x.BitLen() != 16 {
		t.Errorf("BitLen(0x8001) = %d", x.BitLen())
	}
	if x.Bit(0) != 1 || x.Bit(15) != 1 || x.Bit(1) != 0 || x.Bit(64) != 0 {
		t.Error("Bit values wrong")
	}
}

func TestModExpSmall(t *testing.T) {
	// 4^13 mod 497 = 445 (classic example)
	got := FromUint64(4).ModExp(FromUint64(13), FromUint64(497))
	if got.Uint64() != 445 {
		t.Errorf("4^13 mod 497 = %s, want 445", got)
	}
	// Fermat: a^(p-1) mod p == 1 for prime p not dividing a
	p := FromUint64(1000003)
	for _, a := range []uint64{2, 3, 5, 123456} {
		if FromUint64(a).ModExp(p.Sub(One()), p).Uint64() != 1 {
			t.Errorf("Fermat failed for a=%d", a)
		}
	}
}

func TestModExpLarge(t *testing.T) {
	// 2^(2^127-1 - 1) mod (2^127-1) == 1 (Mersenne prime M127)
	m127 := One().Shl(127).Sub(One())
	got := FromUint64(2).ModExp(m127.Sub(One()), m127)
	if got.Cmp(One()) != 0 {
		t.Errorf("Fermat on M127 = %s", got)
	}
}

func TestModExpEdge(t *testing.T) {
	if !FromUint64(5).ModExp(FromUint64(3), One()).IsZero() {
		t.Error("x^e mod 1 != 0")
	}
	if FromUint64(5).ModExp(Zero(), FromUint64(7)).Uint64() != 1 {
		t.Error("x^0 mod 7 != 1")
	}
	if !Zero().ModExp(FromUint64(3), FromUint64(7)).IsZero() {
		t.Error("0^3 mod 7 != 0")
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{12, 18, 6}, {17, 5, 1}, {0, 5, 5}, {5, 0, 5}, {48, 36, 12},
	}
	for _, tc := range cases {
		got := FromUint64(tc.a).GCD(FromUint64(tc.b)).Uint64()
		if got != tc.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestModInverse(t *testing.T) {
	// 3^-1 mod 11 = 4
	inv, ok := FromUint64(3).ModInverse(FromUint64(11))
	if !ok || inv.Uint64() != 4 {
		t.Errorf("3^-1 mod 11 = %s ok=%v", inv, ok)
	}
	// No inverse when not coprime
	if _, ok := FromUint64(6).ModInverse(FromUint64(9)); ok {
		t.Error("6 mod 9 reported invertible")
	}
	if _, ok := FromUint64(6).ModInverse(Zero()); ok {
		t.Error("mod 0 reported invertible")
	}
}

// Property: x * x^-1 ≡ 1 (mod m) whenever the inverse exists.
func TestModInverseProperty(t *testing.T) {
	f := func(xr, mr uint32) bool {
		m := FromUint64(uint64(mr)%100000 + 2)
		x := FromUint64(uint64(xr) + 1)
		inv, ok := x.ModInverse(m)
		if !ok {
			return x.GCD(m).Cmp(One()) != 0
		}
		return x.ModMul(inv, m).Cmp(One()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecimalRoundTrip(t *testing.T) {
	cases := []string{"0", "1", "4294967295", "4294967296",
		"340282366920938463463374607431768211455",
		"115792089237316195423570985008687907853269984665640564039457584007913129639936"}
	for _, s := range cases {
		x, err := FromDecimal(s)
		if err != nil {
			t.Fatalf("FromDecimal(%s): %v", s, err)
		}
		if x.String() != s {
			t.Errorf("String() = %s, want %s", x.String(), s)
		}
	}
	if _, err := FromDecimal("12a3"); err == nil {
		t.Error("bad decimal accepted")
	}
	if _, err := FromDecimal(""); err == nil {
		t.Error("empty decimal accepted")
	}
}

func TestCmpOrdering(t *testing.T) {
	a := MustDecimal("99999999999999999999")
	b := MustDecimal("100000000000000000000")
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("Cmp ordering wrong")
	}
}

// Associativity / commutativity / distributivity properties.
func TestRingProperties(t *testing.T) {
	f := func(ab, bb, cb []byte) bool {
		a, b, c := FromBytes(ab), FromBytes(bb), FromBytes(cb)
		if a.Add(b).Cmp(b.Add(a)) != 0 {
			return false
		}
		if a.Mul(b).Cmp(b.Mul(a)) != 0 {
			return false
		}
		if a.Add(b).Add(c).Cmp(a.Add(b.Add(c))) != 0 {
			return false
		}
		return a.Mul(b.Add(c)).Cmp(a.Mul(b).Add(a.Mul(c))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkModExp512(b *testing.B) {
	base := FromBytes(bytes.Repeat([]byte{0xa5}, 64))
	e := FromBytes(bytes.Repeat([]byte{0x5a}, 64))
	m := FromBytes(bytes.Repeat([]byte{0xff}, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.ModExp(e, m)
	}
}
