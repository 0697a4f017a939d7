// Package rsa implements RSA key generation, encryption and decryption
// over the from-scratch bignum package. In the paper's port this is
// exactly the cipher that was dropped ("we only ported the AES cipher,
// which uses the Rijndael algorithm... the RSA algorithm uses a
// difficult-to-port bignum package"). The Unix profile of issl keeps
// it for session-key exchange; the Embedded profile excludes it, and
// issl documents the resulting handshake downgrade.
package rsa

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/crypto/bignum"
	"repro/internal/crypto/prng"
)

// PublicKey is an RSA public key (n, e).
type PublicKey struct {
	N bignum.Int // modulus
	E bignum.Int // public exponent
}

// PrivateKey is an RSA private key. Private-key operations use the
// CRT fast path (crt.go) when P and Q are present; keys should be
// created once and used by pointer so the lazily derived CRT values
// are computed a single time.
type PrivateKey struct {
	PublicKey
	D bignum.Int // private exponent
	P bignum.Int // prime factor
	Q bignum.Int // prime factor

	crtOnce sync.Once
	crtKey  *bignum.CRT // nil when P, Q are missing or do not fit N
}

var (
	// ErrMessageTooLong is returned when a message exceeds the modulus capacity.
	ErrMessageTooLong = errors.New("rsa: message too long for key size")
	// ErrDecryption is returned when padding fails to verify after decryption.
	ErrDecryption = errors.New("rsa: decryption error")
	// ErrKeyTooSmall is returned by GenerateKey for bit sizes below 128.
	ErrKeyTooSmall = errors.New("rsa: key size below 128 bits")
)

// GenerateKey creates a key with a modulus of the given bit length
// using the supplied deterministic PRNG (the simulated environment has
// no entropy source; the paper's platform had none either).
func GenerateKey(rng *prng.Xorshift, bits int) (*PrivateKey, error) {
	if bits < 128 {
		return nil, ErrKeyTooSmall
	}
	e := bignum.FromUint64(65537)
	for attempt := 0; attempt < 64; attempt++ {
		p := genPrime(rng, bits/2)
		q := genPrime(rng, bits-bits/2)
		if p.Cmp(q) == 0 {
			continue
		}
		n := p.Mul(q)
		if n.BitLen() != bits {
			continue
		}
		phi := p.Sub(bignum.One()).Mul(q.Sub(bignum.One()))
		d, ok := e.ModInverse(phi)
		if !ok {
			continue
		}
		return &PrivateKey{
			PublicKey: PublicKey{N: n, E: e},
			D:         d, P: p, Q: q,
		}, nil
	}
	return nil, errors.New("rsa: key generation did not converge")
}

// genPrime returns a probable prime of exactly the given bit length.
func genPrime(rng *prng.Xorshift, bits int) bignum.Int {
	bytes := (bits + 7) / 8
	for {
		b := rng.Bytes(bytes)
		// Force exact bit length and oddness.
		b[0] |= 0x80 >> uint((8-bits%8)%8)
		if bits%8 != 0 {
			b[0] &= (1 << uint(bits%8)) - 1
			b[0] |= 1 << uint(bits%8-1)
		}
		b[len(b)-1] |= 1
		cand := bignum.FromBytes(b)
		if cand.BitLen() != bits {
			continue
		}
		if isProbablePrime(rng, cand) {
			return cand
		}
	}
}

var smallPrimes = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71}

// isProbablePrime runs trial division then Miller–Rabin with 20 rounds.
func isProbablePrime(rng *prng.Xorshift, n bignum.Int) bool {
	if n.Cmp(bignum.FromUint64(2)) < 0 {
		return false
	}
	for _, sp := range smallPrimes {
		spI := bignum.FromUint64(sp)
		if n.Cmp(spI) == 0 {
			return true
		}
		if n.Mod(spI).IsZero() {
			return false
		}
	}
	// n-1 = d * 2^r with d odd
	nMinus1 := n.Sub(bignum.One())
	d := nMinus1
	r := 0
	for !d.IsOdd() {
		d = d.Shr(1)
		r++
	}
	bytes := (n.BitLen() + 7) / 8
witness:
	for round := 0; round < 20; round++ {
		// Random a in [2, n-2]
		a := bignum.FromBytes(rng.Bytes(bytes)).Mod(nMinus1)
		if a.Cmp(bignum.FromUint64(2)) < 0 {
			a = a.Add(bignum.FromUint64(2))
		}
		x := a.ModExp(d, n)
		if x.Cmp(bignum.One()) == 0 || x.Cmp(nMinus1) == 0 {
			continue
		}
		for i := 0; i < r-1; i++ {
			x = x.ModMul(x, n)
			if x.Cmp(nMinus1) == 0 {
				continue witness
			}
		}
		return false
	}
	return true
}

// keyBytes returns the modulus size in bytes.
func (pub *PublicKey) keyBytes() int { return (pub.N.BitLen() + 7) / 8 }

// MaxPlaintext returns the largest message EncryptPKCS1 accepts.
func (pub *PublicKey) MaxPlaintext() int { return pub.keyBytes() - 11 }

// EncryptPKCS1 encrypts msg with PKCS#1 v1.5-style type-2 padding:
// 00 02 <nonzero random> 00 <msg>. The rng supplies pad bytes.
func (pub *PublicKey) EncryptPKCS1(rng *prng.Xorshift, msg []byte) ([]byte, error) {
	k := pub.keyBytes()
	if len(msg) > k-11 {
		return nil, fmt.Errorf("%w: %d > %d", ErrMessageTooLong, len(msg), k-11)
	}
	em := make([]byte, k)
	em[0] = 0x00
	em[1] = 0x02
	padLen := k - 3 - len(msg)
	for i := 0; i < padLen; i++ {
		b := byte(0)
		for b == 0 {
			b = byte(rng.Next64()) // what rng.Bytes(1)[0] draws, without the slice
		}
		em[2+i] = b
	}
	em[2+padLen] = 0x00
	copy(em[3+padLen:], msg)
	c := bignum.FromBytes(em).ModExp(pub.E, pub.N)
	return c.FillBytes(make([]byte, k)), nil
}

// DecryptPKCS1 reverses EncryptPKCS1.
func (priv *PrivateKey) DecryptPKCS1(ct []byte) ([]byte, error) {
	k := priv.keyBytes()
	if len(ct) != k {
		return nil, fmt.Errorf("%w: ciphertext %d bytes, want %d", ErrDecryption, len(ct), k)
	}
	c := bignum.FromBytes(ct)
	if c.Cmp(priv.N) >= 0 {
		return nil, ErrDecryption
	}
	em := priv.privExp(c).FillBytes(make([]byte, k))
	if em[0] != 0x00 || em[1] != 0x02 {
		return nil, ErrDecryption
	}
	// Find the 00 separator after at least 8 pad bytes.
	sep := -1
	for i := 2; i < len(em); i++ {
		if em[i] == 0x00 {
			sep = i
			break
		}
	}
	if sep < 10 {
		return nil, ErrDecryption
	}
	return em[sep+1:], nil
}

// SignRaw produces a raw signature over a digest: digest^d mod n with
// type-1 (0xFF) padding. Verification is VerifyRaw.
func (priv *PrivateKey) SignRaw(digest []byte) ([]byte, error) {
	k := priv.keyBytes()
	if len(digest) > k-11 {
		return nil, ErrMessageTooLong
	}
	em := make([]byte, k)
	em[0] = 0x00
	em[1] = 0x01
	padLen := k - 3 - len(digest)
	for i := 0; i < padLen; i++ {
		em[2+i] = 0xff
	}
	em[2+padLen] = 0x00
	copy(em[3+padLen:], digest)
	s := priv.privExp(bignum.FromBytes(em))
	return s.FillBytes(make([]byte, k)), nil
}

// VerifyRaw checks a SignRaw signature and returns the recovered digest.
func (pub *PublicKey) VerifyRaw(sig []byte) ([]byte, error) {
	k := pub.keyBytes()
	if len(sig) != k {
		return nil, errors.New("rsa: bad signature length")
	}
	em := bignum.FromBytes(sig).ModExp(pub.E, pub.N).FillBytes(make([]byte, k))
	if em[0] != 0x00 || em[1] != 0x01 {
		return nil, errors.New("rsa: bad signature header")
	}
	sep := -1
	for i := 2; i < len(em); i++ {
		if em[i] == 0x00 {
			sep = i
			break
		}
		if em[i] != 0xff {
			return nil, errors.New("rsa: bad signature padding")
		}
	}
	if sep < 10 {
		return nil, errors.New("rsa: signature padding too short")
	}
	return em[sep+1:], nil
}
