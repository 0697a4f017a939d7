package rsa

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crypto/bignum"
	"repro/internal/crypto/prng"
)

// TestCRTMatchesPlainExponent diffs the CRT private operation against
// the plain d-exponent on raw values across several generated keys.
func TestCRTMatchesPlainExponent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for k := 0; k < 4; k++ {
		priv, err := GenerateKey(prng.NewXorshift(uint64(500+k)), 256)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 250; i++ {
			raw := make([]byte, 32)
			rng.Read(raw)
			c := bignum.FromBytes(raw).Mod(priv.N)
			got := priv.privExp(c)
			want := c.ModExp(priv.D, priv.N)
			if got.Cmp(want) != 0 {
				t.Fatalf("key %d vector %d: crt %s != plain %s", k, i, got, want)
			}
		}
	}
}

// TestCRTFallback pins the plain-exponent fallback for keys carrying
// no (or inconsistent) prime factors.
func TestCRTFallback(t *testing.T) {
	priv, err := GenerateKey(prng.NewXorshift(77), 256)
	if err != nil {
		t.Fatal(err)
	}
	bare := &PrivateKey{PublicKey: priv.PublicKey, D: priv.D} // no P, Q
	c := bignum.FromUint64(0xfeedface)
	if got, want := bare.privExp(c), c.ModExp(priv.D, priv.N); got.Cmp(want) != 0 {
		t.Fatalf("bare key: %s != %s", got, want)
	}
	mangled := &PrivateKey{PublicKey: priv.PublicKey, D: priv.D,
		P: priv.P.Add(bignum.FromUint64(2)), Q: priv.Q} // P·Q != N
	if got, want := mangled.privExp(c), c.ModExp(priv.D, priv.N); got.Cmp(want) != 0 {
		t.Fatalf("mangled key: %s != %s", got, want)
	}
}

// TestCRTRoundTrip exercises the public entry points end to end.
func TestCRTRoundTrip(t *testing.T) {
	priv, err := GenerateKey(prng.NewXorshift(99), 256)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("crt round trip")
	ct, err := priv.EncryptPKCS1(prng.NewXorshift(5), msg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := priv.DecryptPKCS1(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatalf("decrypt = %q, want %q", pt, msg)
	}
	sig, err := priv.SignRaw(msg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := priv.VerifyRaw(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, msg) {
		t.Fatalf("verify = %q, want %q", rec, msg)
	}
}

func benchKey(b *testing.B) (*PrivateKey, bignum.Int) {
	b.Helper()
	priv, err := GenerateKey(prng.NewXorshift(1234), 512)
	if err != nil {
		b.Fatal(err)
	}
	c := bignum.FromBytes(prng.NewXorshift(9).Bytes(60)).Mod(priv.N)
	return priv, c
}

func BenchmarkPrivExpCRT_512(b *testing.B) {
	priv, c := benchKey(b)
	priv.crt() // precompute outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priv.privExp(c)
	}
}

func BenchmarkPrivExpPlain_512(b *testing.B) {
	priv, c := benchKey(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ModExp(priv.D, priv.N)
	}
}

// TestPrivateOpAllocs pins the private-key operations' allocations
// once the CRT precompute is cached: DecryptPKCS1 makes three (the
// ciphertext's Int, CRT.Exp's one slice, the padded block), SignRaw
// four (the padded digest besides).
func TestPrivateOpAllocs(t *testing.T) {
	priv, err := GenerateKey(prng.NewXorshift(0xF00D), 1024)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := priv.PublicKey.EncryptPKCS1(prng.NewXorshift(1), make([]byte, 48))
	if err != nil {
		t.Fatal(err)
	}
	digest := make([]byte, 20)
	priv.crt()
	for _, c := range []struct {
		name string
		op   func()
		max  float64
	}{
		{"DecryptPKCS1", func() { priv.DecryptPKCS1(ct) }, 3},
		{"SignRaw", func() { priv.SignRaw(digest) }, 4},
	} {
		if n := testing.AllocsPerRun(20, c.op); n > c.max {
			t.Errorf("%s: %.0f allocations, want <= %.0f", c.name, n, c.max)
		}
	}
}
