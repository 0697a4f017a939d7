package bignum

import "math/bits"

// CRT is a private exponent d modulo p·q split by the Chinese
// remainder theorem, for RSA's private-key operation, with everything
// that depends only on the key computed once: each prime's Montgomery
// constants (R² mod p and mod q included, which ModExp redoes by long
// division on every call), its divisor normalized for reducing into
// it, the half exponents d mod (p−1) and d mod (q−1), and q⁻¹ mod p in
// Montgomery form. Exp then does the whole operation (both
// reductions, both half exponentiations and Garner's recombination)
// in one scratch slice. A CRT is safe for concurrent use.
type CRT struct {
	p, q  crtPrime
	qinvM []uint64 // q⁻¹·R mod p, so one Montgomery multiply applies q⁻¹
}

// crtPrime is one prime's half of a CRT.
type crtPrime struct {
	ctx   montCtx  // modulus, n0, kernels; ctx.t stays nil (Exp copies ctx)
	rr    []uint64 // R² mod the prime
	v     []uint64 // the prime shifted left by shift, for divLoop
	shift uint     // so v's top bit is set
	d     Int      // the half exponent
}

// NewCRT precomputes the CRT form of exponent d for the odd primes p
// and q: dp = d mod (p−1), dq = d mod (q−1), qinv = q⁻¹ mod p.
func NewCRT(p, q, dp, dq, qinv Int) *CRT {
	k := &CRT{p: newCRTPrime(p, dp), q: newCRTPrime(q, dq)}
	k.qinvM = make([]uint64, len(p.limbs))
	qi := make([]uint64, len(p.limbs))
	copy(qi, qinv.limbs)
	ctx := k.p.ctx
	ctx.t = make([]uint64, len(p.limbs))
	ctx.mul(k.qinvM, qi, k.p.rr)
	return k
}

func newCRTPrime(m, d Int) crtPrime {
	n := len(m.limbs)
	cp := crtPrime{ctx: newMontCtx(m), rr: make([]uint64, n), d: d}
	cp.ctx.setRR(cp.rr, make([]uint64, 3*n+2))
	cp.shift = uint(bits.LeadingZeros64(m.limbs[n-1]))
	cp.v = m.Shl(int(cp.shift)).limbs
	return cp
}

// Exp returns x^d mod p·q for x < p·q. It makes one allocation, the
// result and its scratch together.
func (k *CRT) Exp(x Int) Int {
	np, nq := len(k.p.ctx.m), len(k.q.ctx.m)
	scratch := max(len(x.limbs)+1, expLen(np, k.p.d), expLen(nq, k.q.d))
	buf := make([]uint64, (np+nq)+4*np+2*nq+scratch)
	carve := func(n int) []uint64 {
		c := buf[:n:n]
		buf = buf[n:]
		return c
	}
	out := carve(np + nq)
	xp, m1, h := carve(np), carve(np), carve(np)
	xq, m2 := carve(nq), carve(nq)
	m2p, s := carve(np), buf

	k.p.reduce(xp, x.limbs, s)
	k.q.reduce(xq, x.limbs, s)
	k.p.exp(m1, xp, s)
	k.q.exp(m2, xq, s)

	// Garner: h = q⁻¹·(m1 − m2) mod p, and x^d = m2 + h·q.
	k.p.reduce(m2p, m2, s)
	var borrow uint64
	for i := range h {
		h[i], borrow = bits.Sub64(m1[i], m2p[i], borrow)
	}
	if borrow != 0 { // m1 < m2 mod p: add p back
		var c uint64
		for i := range h {
			h[i], c = bits.Add64(h[i], k.p.ctx.m[i], c)
		}
	}
	ctx := k.p.ctx
	ctx.t = s[:np]
	ctx.mul(h, h, k.qinvM)
	mulInto(out, h, k.q.ctx.m)
	var c uint64
	for i := range out {
		var mi uint64
		if i < nq {
			mi = m2[i]
		}
		out[i], c = bits.Add64(out[i], mi, c)
	}
	return Int{limbs: norm(out)}
}

// reduce sets dst, one limb per limb of the prime, to x mod the prime,
// dividing in s (at least len(x)+1 limbs).
func (cp *crtPrime) reduce(dst, x, s []uint64) {
	n := len(cp.v)
	if len(x) < n { // already below the prime, whose top limb is nonzero
		clear(dst)
		copy(dst, x)
		return
	}
	if n == 1 { // divLoop needs a divisor of two limbs or more
		var r uint64
		for i := len(x) - 1; i >= 0; i-- {
			r = bits.Rem64(r, x[i], cp.ctx.m[0])
		}
		dst[0] = r
		return
	}
	u := s[:len(x)+1]
	shift := cp.shift
	u[len(x)] = x[len(x)-1] >> (64 - shift)
	for i := len(x) - 1; i > 0; i-- {
		u[i] = x[i]<<shift | x[i-1]>>(64-shift)
	}
	u[0] = x[0] << shift
	divLoop(u, cp.v, nil)
	for i := range dst {
		dst[i] = u[i]>>shift | u[i+1]<<(64-shift)
	}
}

// exp sets dst to x^d mod the prime for a reduced x, in scratch s.
func (cp *crtPrime) exp(dst, x, s []uint64) {
	ctx := cp.ctx // a copy: expInto points ctx.t into this call's scratch
	ctx.expInto(dst, x, cp.d, cp.rr, s)
}
