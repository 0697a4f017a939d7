package rsa

import (
	"repro/internal/crypto/bignum"
)

// CRT private-key exponentiation. With the prime factors in hand the
// private operation splits into two half-size exponentiations
// recombined by Garner's formula — roughly a 4x win on top of the
// Montgomery kernel, since modexp cost grows cubically with width.
// The precompute (bignum.CRT: the half exponents, q⁻¹ mod p and each
// prime's Montgomery constants) is derived lazily on first use (keys
// are built with struct literals all over the tests) and cached on the
// key.

// crt returns the key's CRT precompute, or nil when P and Q are
// missing, inconsistent with N, or Q is not invertible mod P.
func (priv *PrivateKey) crt() *bignum.CRT {
	priv.crtOnce.Do(func() {
		if priv.P.IsZero() || priv.Q.IsZero() || priv.P.Mul(priv.Q).Cmp(priv.N) != 0 {
			return
		}
		one := bignum.One()
		dp := priv.D.Mod(priv.P.Sub(one))
		dq := priv.D.Mod(priv.Q.Sub(one))
		if qinv, ok := priv.Q.ModInverse(priv.P); ok {
			priv.crtKey = bignum.NewCRT(priv.P, priv.Q, dp, dq, qinv)
		}
	})
	return priv.crtKey
}

// privExp computes c^D mod N for c < N, via the CRT split when the key
// carries usable prime factors and via the plain exponent otherwise.
func (priv *PrivateKey) privExp(c bignum.Int) bignum.Int {
	if k := priv.crt(); k != nil {
		return k.Exp(c)
	}
	return c.ModExp(priv.D, priv.N)
}
