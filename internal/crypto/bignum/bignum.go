// Package bignum is an arbitrary-precision unsigned integer package
// implemented from scratch (math/big is deliberately not used). It
// stands in for the "difficult-to-port bignum package" that the RSA
// cipher in issl depended on — the dependency that made the RMC2000
// port drop RSA entirely. The Unix-profile issl here keeps RSA, so the
// library needs a real bignum.
//
// Representation: little-endian []uint64 limbs with no trailing zero
// limbs (zero is the empty slice). All values are non-negative; RSA
// needs no signed arithmetic. The limb width was doubled from uint32
// to uint64 (math/bits.Mul64/Add64 128-bit arithmetic) to halve the
// inner-loop trip counts of the multiply/reduce kernels. math/big is
// the test oracle: internal/conform and FuzzBignum diff every
// operation against it.
package bignum

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// Int is an arbitrary-precision unsigned integer. The zero value is 0
// and ready to use. Ints are immutable from the caller's perspective:
// all methods return fresh values and never alias their operands'
// storage in results.
type Int struct {
	limbs []uint64 // little-endian, normalized (no trailing zeros)
}

// ErrDivByZero is returned by Div/Mod family operations for a zero divisor.
var ErrDivByZero = errors.New("bignum: division by zero")

// Zero and One are convenience constructors.
func Zero() Int { return Int{} }

// One returns the integer 1.
func One() Int { return FromUint64(1) }

// FromUint64 builds an Int from a uint64.
func FromUint64(v uint64) Int {
	if v == 0 {
		return Int{}
	}
	return Int{limbs: []uint64{v}}
}

// FromBytes builds an Int from big-endian bytes.
func FromBytes(b []byte) Int {
	n := (len(b) + 7) / 8
	limbs := make([]uint64, n)
	for i, by := range b {
		shift := uint((len(b) - 1 - i) % 8 * 8)
		limbs[(len(b)-1-i)/8] |= uint64(by) << shift
	}
	return Int{limbs: norm(limbs)}
}

// FromDecimal parses a base-10 string.
func FromDecimal(s string) (Int, error) {
	if s == "" {
		return Int{}, errors.New("bignum: empty decimal string")
	}
	x := Zero()
	ten := FromUint64(10)
	for _, r := range s {
		if r < '0' || r > '9' {
			return Int{}, fmt.Errorf("bignum: bad digit %q", r)
		}
		x = x.Mul(ten).Add(FromUint64(uint64(r - '0')))
	}
	return x, nil
}

func norm(l []uint64) []uint64 {
	for len(l) > 0 && l[len(l)-1] == 0 {
		l = l[:len(l)-1]
	}
	return l
}

// IsZero reports whether x == 0.
func (x Int) IsZero() bool { return len(x.limbs) == 0 }

// IsOdd reports whether the low bit is set.
func (x Int) IsOdd() bool { return len(x.limbs) > 0 && x.limbs[0]&1 == 1 }

// Uint64 returns the low 64 bits of x.
func (x Int) Uint64() uint64 {
	if len(x.limbs) == 0 {
		return 0
	}
	return x.limbs[0]
}

// BitLen returns the number of bits in x (0 for x == 0).
func (x Int) BitLen() int {
	if len(x.limbs) == 0 {
		return 0
	}
	return (len(x.limbs)-1)*64 + bits.Len64(x.limbs[len(x.limbs)-1])
}

// Bit returns bit i of x (0 or 1).
func (x Int) Bit(i int) uint {
	limb := i / 64
	if limb >= len(x.limbs) {
		return 0
	}
	return uint(x.limbs[limb] >> (i % 64) & 1)
}

// Bytes returns x as big-endian bytes with no leading zeros
// (empty slice for zero).
func (x Int) Bytes() []byte {
	if x.IsZero() {
		return nil
	}
	n := (x.BitLen() + 7) / 8
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		limb := i / 8
		shift := uint(i % 8 * 8)
		out[n-1-i] = byte(x.limbs[limb] >> shift)
	}
	return out
}

// FillBytes writes x as big-endian into buf, left-padded with zeros.
// It panics if x does not fit.
func (x Int) FillBytes(buf []byte) []byte {
	if (x.BitLen()+7)/8 > len(buf) {
		panic("bignum: FillBytes buffer too small")
	}
	clear(buf)
	pos := len(buf) - 1
	for _, l := range x.limbs {
		for k := 0; k < 64 && pos >= 0; k, pos = k+8, pos-1 {
			buf[pos] = byte(l >> k)
		}
	}
	return buf
}

// Cmp returns -1, 0 or +1 as x < y, x == y, x > y.
func (x Int) Cmp(y Int) int {
	if len(x.limbs) != len(y.limbs) {
		if len(x.limbs) < len(y.limbs) {
			return -1
		}
		return 1
	}
	for i := len(x.limbs) - 1; i >= 0; i-- {
		if x.limbs[i] != y.limbs[i] {
			if x.limbs[i] < y.limbs[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Add returns x + y.
func (x Int) Add(y Int) Int {
	a, b := x.limbs, y.limbs
	if len(a) < len(b) {
		a, b = b, a
	}
	out := make([]uint64, len(a)+1)
	var carry uint64
	for i := range a {
		s := a[i]
		if i < len(b) {
			s, carry = bits.Add64(s, b[i], carry)
		} else {
			s, carry = bits.Add64(s, 0, carry)
		}
		out[i] = s
	}
	out[len(a)] = carry
	return Int{limbs: norm(out)}
}

// Sub returns x - y; it panics if y > x (values are unsigned).
func (x Int) Sub(y Int) Int {
	if x.Cmp(y) < 0 {
		panic("bignum: negative result in Sub")
	}
	out := make([]uint64, len(x.limbs))
	var borrow uint64
	for i := range x.limbs {
		d := x.limbs[i]
		if i < len(y.limbs) {
			d, borrow = bits.Sub64(d, y.limbs[i], borrow)
		} else {
			d, borrow = bits.Sub64(d, 0, borrow)
		}
		out[i] = d
	}
	return Int{limbs: norm(out)}
}

// Mul returns x * y (schoolbook over 64×64→128 limb products; fine at
// RSA sizes).
func (x Int) Mul(y Int) Int {
	if x.IsZero() || y.IsZero() {
		return Int{}
	}
	out := make([]uint64, len(x.limbs)+len(y.limbs))
	mulInto(out, x.limbs, y.limbs)
	return Int{limbs: norm(out)}
}

// mulInto sets out, len(x)+len(y) limbs, to the schoolbook product x·y.
func mulInto(out, x, y []uint64) {
	clear(out)
	for i, xi := range x {
		var carry uint64
		for j, yj := range y {
			hi, lo := bits.Mul64(xi, yj)
			lo, c := bits.Add64(lo, out[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			out[i+j] = lo
			carry = hi
		}
		out[i+len(y)] = carry
	}
}

// Shl returns x << n.
func (x Int) Shl(n int) Int {
	if x.IsZero() || n == 0 {
		return Int{limbs: append([]uint64(nil), x.limbs...)}
	}
	limbShift, bitShift := n/64, uint(n%64)
	out := make([]uint64, len(x.limbs)+limbShift+1)
	for i, l := range x.limbs {
		out[i+limbShift] |= l << bitShift
		if bitShift > 0 {
			out[i+limbShift+1] |= l >> (64 - bitShift)
		}
	}
	return Int{limbs: norm(out)}
}

// Shr returns x >> n.
func (x Int) Shr(n int) Int {
	limbShift, bitShift := n/64, uint(n%64)
	if limbShift >= len(x.limbs) {
		return Int{}
	}
	out := make([]uint64, len(x.limbs)-limbShift)
	for i := range out {
		out[i] = x.limbs[i+limbShift] >> bitShift
		if bitShift > 0 && i+limbShift+1 < len(x.limbs) {
			out[i] |= x.limbs[i+limbShift+1] << (64 - bitShift)
		}
	}
	return Int{limbs: norm(out)}
}

// DivMod returns (x/y, x%y) using limb-based long division (Knuth's
// Algorithm D), fast enough for RSA key generation in tests.
func (x Int) DivMod(y Int) (q, r Int, err error) {
	if y.IsZero() {
		return Int{}, Int{}, ErrDivByZero
	}
	if x.Cmp(y) < 0 {
		return Int{}, Int{limbs: append([]uint64(nil), x.limbs...)}, nil
	}
	if len(y.limbs) == 1 {
		d := y.limbs[0]
		out := make([]uint64, len(x.limbs))
		var rem uint64
		for i := len(x.limbs) - 1; i >= 0; i-- {
			out[i], rem = bits.Div64(rem, x.limbs[i], d)
		}
		return Int{limbs: norm(out)}, FromUint64(rem), nil
	}
	// Normalize so the divisor's top limb has its high bit set.
	shift := bits.LeadingZeros64(y.limbs[len(y.limbs)-1])
	v := y.Shl(shift).limbs
	un := x.Shl(shift).limbs
	// u needs m+n+1 limbs.
	u := make([]uint64, len(un)+1)
	copy(u, un)
	qLimbs := make([]uint64, len(u)-len(v))
	divLoop(u, v, qLimbs)
	r = Int{limbs: norm(u[:len(v)])}.Shr(shift)
	return Int{limbs: norm(qLimbs)}, r, nil
}

// divLoop is the core of Knuth's Algorithm D. v is the divisor, at
// least two limbs, shifted so its top bit is set; u is the dividend
// under the same shift plus one zero top limb. On return u[:len(v)]
// holds the (still shifted) remainder and q, when non-nil, the
// len(u)-len(v) quotient limbs. It allocates nothing.
func divLoop(u, v, q []uint64) {
	n := len(v)
	for j := len(u) - n - 1; j >= 0; j-- {
		// Estimate qhat from the top two limbs of the current remainder.
		// bits.Div64 panics when the high word >= divisor, which here
		// means qhat would be >= 2^64: clamp to the all-ones limb and
		// let the add-back correction below absorb the overshoot.
		var qhat, rhat uint64
		if u[j+n] >= v[n-1] {
			qhat = ^uint64(0)
		} else {
			qhat, rhat = bits.Div64(u[j+n], u[j+n-1], v[n-1])
			// Refine: while qhat*v[n-2] overshoots the 128-bit
			// remainder tail, step qhat down (at most twice).
			for {
				hi, lo := bits.Mul64(qhat, v[n-2])
				if hi < rhat || (hi == rhat && lo <= u[j+n-2]) {
					break
				}
				qhat--
				var c uint64
				rhat, c = bits.Add64(rhat, v[n-1], 0)
				if c != 0 {
					break
				}
			}
		}
		// Multiply-subtract qhat*v from u[j..j+n].
		var borrow, mulCarry uint64
		for i := 0; i < n; i++ {
			hi, lo := bits.Mul64(qhat, v[i])
			lo, c := bits.Add64(lo, mulCarry, 0)
			mulCarry = hi + c
			u[i+j], borrow = bits.Sub64(u[i+j], lo, borrow)
		}
		t, underflow := bits.Sub64(u[j+n], mulCarry, borrow)
		u[j+n] = t
		if underflow != 0 {
			// qhat was one too large: add v back and decrement.
			qhat--
			var c uint64
			for i := 0; i < n; i++ {
				u[i+j], c = bits.Add64(u[i+j], v[i], c)
			}
			u[j+n] += c
		}
		if q != nil {
			q[j] = qhat
		}
	}
}

// Div returns x / y, panicking on zero divisor.
func (x Int) Div(y Int) Int {
	q, _, err := x.DivMod(y)
	if err != nil {
		panic(err)
	}
	return q
}

// Mod returns x % y, panicking on zero divisor.
func (x Int) Mod(y Int) Int {
	_, r, err := x.DivMod(y)
	if err != nil {
		panic(err)
	}
	return r
}

// ModMul returns x*y mod m.
func (x Int) ModMul(y, m Int) Int { return x.Mul(y).Mod(m) }

// ModExp returns x^e mod m. m must be nonzero. Odd moduli (every RSA
// modulus, prime, and CRT factor) take the Montgomery fast path in
// mont.go; even moduli fall back to the schoolbook square-and-multiply.
func (x Int) ModExp(e, m Int) Int {
	if m.IsZero() {
		panic(ErrDivByZero)
	}
	if m.Cmp(One()) == 0 {
		return Int{}
	}
	if m.IsOdd() {
		if x.Cmp(m) >= 0 {
			x = x.Mod(m)
		}
		return modExpMont(x, e, m)
	}
	return x.modExpBasic(e, m)
}

// modExpBasic is the original square-and-multiply over ModMul (full
// multiply + long division per step). Kept as the even-modulus path
// and as the oracle the Montgomery tests diff against.
func (x Int) modExpBasic(e, m Int) Int {
	result := One()
	base := x.Mod(m)
	for i := 0; i < e.BitLen(); i++ {
		if e.Bit(i) == 1 {
			result = result.ModMul(base, m)
		}
		base = base.ModMul(base, m)
	}
	return result
}

// GCD returns gcd(x, y).
func (x Int) GCD(y Int) Int {
	a, b := x, y
	for !b.IsZero() {
		a, b = b, a.Mod(b)
	}
	return a
}

// ModInverse returns x^-1 mod m and ok=false if no inverse exists.
// Extended Euclid carried with signs tracked manually (values are unsigned).
func (x Int) ModInverse(m Int) (Int, bool) {
	if m.IsZero() {
		return Int{}, false
	}
	// Maintain r0 = m, r1 = x mod m; t coefficients with explicit signs.
	r0, r1 := m, x.Mod(m)
	t0, t1 := Zero(), One()
	neg0, neg1 := false, false
	for !r1.IsZero() {
		q := r0.Div(r1)
		r0, r1 = r1, r0.Sub(q.Mul(r1))
		// t2 = t0 - q*t1 with sign tracking
		qt := q.Mul(t1)
		var t2 Int
		var neg2 bool
		if neg0 == neg1 {
			if t0.Cmp(qt) >= 0 {
				t2, neg2 = t0.Sub(qt), neg0
			} else {
				t2, neg2 = qt.Sub(t0), !neg0
			}
		} else {
			t2, neg2 = t0.Add(qt), neg0
		}
		t0, t1, neg0, neg1 = t1, t2, neg1, neg2
	}
	if r0.Cmp(One()) != 0 {
		return Int{}, false
	}
	if neg0 {
		return m.Sub(t0.Mod(m)).Mod(m), true
	}
	return t0.Mod(m), true
}

// String renders x in decimal.
func (x Int) String() string {
	if x.IsZero() {
		return "0"
	}
	var sb strings.Builder
	ten := FromUint64(10)
	var digits []byte
	v := x
	for !v.IsZero() {
		q, r, _ := v.DivMod(ten)
		digits = append(digits, byte('0'+r.Uint64()))
		v = q
	}
	for i := len(digits) - 1; i >= 0; i-- {
		sb.WriteByte(digits[i])
	}
	return sb.String()
}
