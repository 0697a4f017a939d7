package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"

	"repro/internal/race"
)

// cbcEncryptGeneric is CBC over the byte-oriented reference cipher —
// the seed kernel's exact data path, kept for equivalence tests and
// the before/after benchmarks.
func cbcEncryptGeneric(c *Cipher, iv, plaintext []byte) []byte {
	bs := c.BlockSize()
	out := make([]byte, len(plaintext))
	prev := iv
	for off := 0; off < len(plaintext); off += bs {
		blk := make([]byte, bs)
		for i := 0; i < bs; i++ {
			blk[i] = plaintext[off+i] ^ prev[i]
		}
		c.encryptGeneric(out[off:off+bs], blk)
		prev = out[off : off+bs]
	}
	return out
}

// bothPaths runs f as two subtests, one with the ciphers New builds on
// the AES-NI path and one on the portable T-table path. The hardware
// half skips on a CPU without AES-NI.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, p := range []struct {
		name string
		ni   bool
	}{{"aesni", true}, {"portable", false}} {
		t.Run(p.name, func(t *testing.T) {
			if p.ni && !hasAESNI {
				t.Skip("CPU lacks AES-NI; only the portable path runs here")
			}
			defer SetHardware(SetHardware(p.ni))
			if useAESNI.Load() != p.ni {
				t.Fatalf("SetHardware(%v) left useAESNI = %v", p.ni, useAESNI.Load())
			}
			f(t)
		})
	}
}

// newPathCipher is NewAES plus a check that the cipher took the path
// bothPaths selected.
func newPathCipher(t *testing.T, key []byte) *Cipher {
	t.Helper()
	c, err := NewAES(key)
	if err != nil {
		t.Fatal(err)
	}
	if (c.ek != nil) != useAESNI.Load() {
		t.Fatalf("useAESNI = %v but the cipher has AES-NI keys: %v", useAESNI.Load(), c.ek != nil)
	}
	return c
}

// TestTTableMatchesGeneric diffs the single-block fast path (AES-NI or
// T-table) against the byte-oriented spec transliteration over 10k
// seeded vectors for every FIPS key size, both directions. Every
// eleventh vector runs in place (dst == src) on a block at an
// unaligned offset.
func TestTTableMatchesGeneric(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < 10_000; i++ {
			keyLen := []int{16, 24, 32}[i%3]
			key := make([]byte, keyLen)
			rng.Read(key)
			c := newPathCipher(t, key)
			pt := make([]byte, 16)
			rng.Read(pt)
			fast, ref := make([]byte, 16), make([]byte, 16)
			if i%11 == 0 {
				off := 1 + i%15
				fast = make([]byte, off+16)[off:]
				copy(fast, pt)
				c.Encrypt(fast, fast)
			} else {
				c.Encrypt(fast, pt)
			}
			c.encryptGeneric(ref, pt)
			if !bytes.Equal(fast, ref) {
				t.Fatalf("vector %d (key %d): encrypt fast %x != generic %x", i, keyLen*8, fast, ref)
			}
			back, backRef := make([]byte, 16), make([]byte, 16)
			if i%11 == 0 {
				back = fast
				c.Decrypt(back, back)
			} else {
				c.Decrypt(back, ref)
			}
			c.decryptGeneric(backRef, ref)
			if !bytes.Equal(back, backRef) {
				t.Fatalf("vector %d (key %d): decrypt fast %x != generic %x", i, keyLen*8, back, backRef)
			}
			if !bytes.Equal(back, pt) {
				t.Fatalf("vector %d: round trip lost the plaintext", i)
			}
		}
	})
}

// TestCBCInPlaceMatchesAllocating checks the in-place whole-buffer CBC
// against the seed kernel's allocating per-block path.
func TestCBCInPlaceMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2_000; i++ {
		key := make([]byte, 16)
		iv := make([]byte, 16)
		rng.Read(key)
		rng.Read(iv)
		c, _ := NewAES(key)
		pt := make([]byte, 16*(1+rng.Intn(8)))
		rng.Read(pt)

		want := cbcEncryptGeneric(c, iv, pt)
		buf := append([]byte(nil), pt...)
		if err := c.EncryptCBCInPlace(iv, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("vector %d: in-place CBC != generic CBC", i)
		}
		if err := c.DecryptCBCInPlace(iv, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pt) {
			t.Fatalf("vector %d: CBC decrypt in place lost the plaintext", i)
		}
	}
}

// TestCBCMatchesStdlib diffs in-place CBC, both directions and both
// paths, against crypto/cipher over crypto/aes for 128-, 192- and
// 256-bit keys at record sizes: every length from 0 to 64 blocks, then
// seeded lengths up to 16 KiB, each under a fresh key and IV. Each
// buffer sits at an offset of 0-15 bytes into a larger one whose
// other bytes must come through untouched.
func TestCBCMatchesStdlib(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, keyLen := range []int{16, 24, 32} {
			for i := 0; i < 65+64; i++ {
				blocks := i
				if i >= 65 {
					blocks = 1 + rng.Intn(1024)
				}
				key := make([]byte, keyLen)
				iv := make([]byte, 16)
				pt := make([]byte, 16*blocks)
				rng.Read(key)
				rng.Read(iv)
				rng.Read(pt)
				c := newPathCipher(t, key)
				ref, err := stdaes.NewCipher(key)
				if err != nil {
					t.Fatal(err)
				}
				off := i % 16
				outer := make([]byte, off+len(pt)+16)
				rng.Read(outer)
				guard := append([]byte(nil), outer...)
				buf := outer[off : off+len(pt)]

				want := make([]byte, len(pt))
				cipher.NewCBCEncrypter(ref, iv).CryptBlocks(want, pt)
				copy(buf, pt)
				if err := c.EncryptCBCInPlace(iv, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("AES-%d, %d B at +%d: EncryptCBCInPlace differs from crypto/cipher", keyLen*8, len(pt), off)
				}
				checkGuard(t, outer, guard, off, len(pt))

				ct := make([]byte, len(pt))
				rng.Read(ct) // decrypt arbitrary ciphertext, not only our own
				cipher.NewCBCDecrypter(ref, iv).CryptBlocks(want, ct)
				copy(buf, ct)
				if err := c.DecryptCBCInPlace(iv, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("AES-%d, %d B at +%d: DecryptCBCInPlace differs from crypto/cipher", keyLen*8, len(pt), off)
				}
				checkGuard(t, outer, guard, off, len(pt))
			}
		}
	})
}

// checkGuard fails if CBC wrote outside outer[off:off+n].
func checkGuard(t *testing.T, outer, guard []byte, off, n int) {
	t.Helper()
	if !bytes.Equal(outer[:off], guard[:off]) || !bytes.Equal(outer[off+n:], guard[off+n:]) {
		t.Fatalf("CBC over %d B at +%d wrote outside its buffer", n, off)
	}
}

// TestCBCFastPathZeroAlloc pins the record-layer contract: whole-buffer
// CBC in either direction allocates nothing, on either path.
func TestCBCFastPathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	bothPaths(t, func(t *testing.T) {
		key := make([]byte, 16)
		iv := make([]byte, 16)
		c := newPathCipher(t, key)
		buf := make([]byte, 4096)
		if n := testing.AllocsPerRun(50, func() {
			c.EncryptCBCInPlace(iv, buf)
		}); n != 0 {
			t.Errorf("EncryptCBCInPlace allocates %v per call, want 0", n)
		}
		if n := testing.AllocsPerRun(50, func() {
			c.DecryptCBCInPlace(iv, buf)
		}); n != 0 {
			t.Errorf("DecryptCBCInPlace allocates %v per call, want 0", n)
		}
	})
}

func benchCipher(b *testing.B) *Cipher {
	b.Helper()
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	c, err := NewAES(key)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkEncryptTTable(b *testing.B) {
	c := benchCipher(b)
	blk := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.encryptBlock4(blk, blk)
	}
}

func BenchmarkEncryptGeneric(b *testing.B) {
	c := benchCipher(b)
	blk := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.encryptGeneric(blk, blk)
	}
}

func BenchmarkCBCEncryptFast_4K(b *testing.B) {
	c := benchCipher(b)
	iv := make([]byte, 16)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		c.EncryptCBCInPlace(iv, buf)
	}
}

func BenchmarkCBCEncryptGeneric_4K(b *testing.B) {
	c := benchCipher(b)
	iv := make([]byte, 16)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		cbcEncryptGeneric(c, iv, buf)
	}
}

func BenchmarkCBCDecryptFast_4K(b *testing.B) {
	c := benchCipher(b)
	iv := make([]byte, 16)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		c.DecryptCBCInPlace(iv, buf)
	}
}
