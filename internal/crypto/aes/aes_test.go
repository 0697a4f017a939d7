package aes

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C vectors (Nb=4).
var fipsVectors = []struct {
	key, plain, cipher string
}{
	{
		"000102030405060708090a0b0c0d0e0f",
		"00112233445566778899aabbccddeeff",
		"69c4e0d86a7b0430d8cdb78070b4c55a",
	},
	{
		"000102030405060708090a0b0c0d0e0f1011121314151617",
		"00112233445566778899aabbccddeeff",
		"dda97ca4864cdfe06eaf70a0ec0d7191",
	},
	{
		"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
		"00112233445566778899aabbccddeeff",
		"8ea2b7ca516745bfeafc49904b496089",
	},
}

func TestFIPS197Vectors(t *testing.T) {
	for _, v := range fipsVectors {
		key := unhex(t, v.key)
		c, err := NewAES(key)
		if err != nil {
			t.Fatalf("NewAES(%d bytes): %v", len(key), err)
		}
		got := make([]byte, 16)
		c.Encrypt(got, unhex(t, v.plain))
		if want := unhex(t, v.cipher); !bytes.Equal(got, want) {
			t.Errorf("key %s: encrypt = %x, want %x", v.key, got, want)
		}
		back := make([]byte, 16)
		c.Decrypt(back, got)
		if want := unhex(t, v.plain); !bytes.Equal(back, want) {
			t.Errorf("key %s: decrypt = %x, want %x", v.key, back, want)
		}
	}
}

// FIPS-197 Appendix B vector exercises a different key/plaintext pair.
func TestFIPS197AppendixB(t *testing.T) {
	c, err := NewAES(unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.Encrypt(got, unhex(t, "3243f6a8885a308d313198a2e0370734"))
	if want := unhex(t, "3925841d02dc09fbdc118597196a0b32"); !bytes.Equal(got, want) {
		t.Errorf("encrypt = %x, want %x", got, want)
	}
}

func TestRoundCounts(t *testing.T) {
	cases := []struct {
		keyLen, blockLen, rounds int
	}{
		{16, 16, 10}, {24, 16, 12}, {32, 16, 14},
		{16, 24, 12}, {24, 24, 12}, {32, 24, 14},
		{16, 32, 14}, {24, 32, 14}, {32, 32, 14},
	}
	for _, tc := range cases {
		c, err := New(make([]byte, tc.keyLen), tc.blockLen)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", tc.keyLen, tc.blockLen, err)
		}
		if c.nr != tc.rounds {
			t.Errorf("key %d block %d: rounds = %d, want %d",
				tc.keyLen, tc.blockLen, c.nr, tc.rounds)
		}
	}
}

func TestInvalidSizes(t *testing.T) {
	if _, err := New(make([]byte, 15), 16); err == nil {
		t.Error("15-byte key accepted")
	}
	if _, err := New(make([]byte, 16), 20); err == nil {
		t.Error("20-byte block accepted")
	}
	if _, err := New(nil, 16); err == nil {
		t.Error("nil key accepted")
	}
}

// TestRoundTripAllConfigs checks decrypt(encrypt(p)) == p across the
// full issl configuration space, including the big-block Rijndael
// variants that stdlib AES does not cover.
func TestRoundTripAllConfigs(t *testing.T) {
	for _, keyLen := range []int{16, 24, 32} {
		for _, blockLen := range []int{16, 24, 32} {
			key := make([]byte, keyLen)
			for i := range key {
				key[i] = byte(i*7 + 3)
			}
			c, err := New(key, blockLen)
			if err != nil {
				t.Fatal(err)
			}
			plain := make([]byte, blockLen)
			for i := range plain {
				plain[i] = byte(i * 13)
			}
			ct := make([]byte, blockLen)
			pt := make([]byte, blockLen)
			c.Encrypt(ct, plain)
			if bytes.Equal(ct, plain) {
				t.Errorf("key %d block %d: ciphertext equals plaintext", keyLen, blockLen)
			}
			c.Decrypt(pt, ct)
			if !bytes.Equal(pt, plain) {
				t.Errorf("key %d block %d: round trip failed", keyLen, blockLen)
			}
		}
	}
}

// Property: for random keys and blocks, Decrypt inverts Encrypt (AES-128).
func TestQuickRoundTrip128(t *testing.T) {
	f := func(key [16]byte, plain [16]byte) bool {
		c, err := NewAES(key[:])
		if err != nil {
			return false
		}
		var ct, pt [16]byte
		c.Encrypt(ct[:], plain[:])
		c.Decrypt(pt[:], ct[:])
		return pt == plain
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: encryption is injective — distinct plaintexts give distinct
// ciphertexts under the same key.
func TestQuickInjective(t *testing.T) {
	f := func(key, p1, p2 [16]byte) bool {
		c, _ := NewAES(key[:])
		var c1, c2 [16]byte
		c.Encrypt(c1[:], p1[:])
		c.Encrypt(c2[:], p2[:])
		return (p1 == p2) == (c1 == c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: flipping any single key bit changes the ciphertext (key
// avalanche, weak form).
func TestKeyAvalanche(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	plain := unhex(t, "00112233445566778899aabbccddeeff")
	base, _ := NewAES(key)
	ref := make([]byte, 16)
	base.Encrypt(ref, plain)
	for bit := 0; bit < 128; bit++ {
		k2 := make([]byte, 16)
		copy(k2, key)
		k2[bit/8] ^= 1 << (bit % 8)
		c2, _ := NewAES(k2)
		got := make([]byte, 16)
		c2.Encrypt(got, plain)
		if bytes.Equal(got, ref) {
			t.Errorf("flipping key bit %d left ciphertext unchanged", bit)
		}
	}
}

func TestSboxInverse(t *testing.T) {
	for i := 0; i < 256; i++ {
		if isbox[sbox[i]] != byte(i) {
			t.Fatalf("isbox[sbox[%#x]] = %#x", i, isbox[sbox[i]])
		}
	}
	// Spot-check spec values.
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed || sbox[0xff] != 0x16 {
		t.Errorf("sbox spot values wrong: %#x %#x %#x", sbox[0x00], sbox[0x53], sbox[0xff])
	}
}

func TestCBCRoundTrip(t *testing.T) {
	c, _ := NewAES(unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	iv := unhex(t, "000102030405060708090a0b0c0d0e0f")
	msg := []byte("the secure redirector forwards this message verbatim")
	buf := c.Pad(msg)
	if err := c.EncryptCBCInPlace(iv, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.DecryptCBCInPlace(iv, buf); err != nil {
		t.Fatal(err)
	}
	out, err := c.Unpad(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, msg) {
		t.Errorf("CBC round trip = %q, want %q", out, msg)
	}
}

// NIST SP 800-38A F.2.1 CBC-AES128 vector.
func TestCBCVector(t *testing.T) {
	c, _ := NewAES(unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	iv := unhex(t, "000102030405060708090a0b0c0d0e0f")
	plain := unhex(t, "6bc1bee22e409f96e93d7e117393172a")
	want := unhex(t, "7649abac8119b246cee98e9b12e9197d")
	if err := c.EncryptCBCInPlace(iv, plain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, want) {
		t.Errorf("CBC = %x, want %x", plain, want)
	}
}

func TestPaddingProperties(t *testing.T) {
	c, _ := NewAES(make([]byte, 16))
	f := func(data []byte) bool {
		p := c.Pad(data)
		if len(p)%16 != 0 || len(p) == len(data) {
			return false
		}
		u, err := c.Unpad(p)
		return err == nil && bytes.Equal(u, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnpadRejectsCorrupt(t *testing.T) {
	c, _ := NewAES(make([]byte, 16))
	cases := [][]byte{
		nil,
		make([]byte, 15),             // not block multiple
		append(make([]byte, 15), 0),  // zero pad byte
		append(make([]byte, 15), 17), // pad longer than block
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 3, 2}, // inconsistent
	}
	for i, bad := range cases {
		if _, err := c.Unpad(bad); err == nil {
			t.Errorf("case %d: corrupt padding accepted", i)
		}
	}
}

func TestCBCRejectsBadLengths(t *testing.T) {
	c, _ := NewAES(make([]byte, 16))
	if err := c.EncryptCBCInPlace(make([]byte, 8), make([]byte, 16)); err == nil {
		t.Error("short IV accepted")
	}
	if err := c.EncryptCBCInPlace(make([]byte, 16), make([]byte, 17)); err == nil {
		t.Error("ragged plaintext accepted")
	}
	if err := c.DecryptCBCInPlace(make([]byte, 16), make([]byte, 15)); err == nil {
		t.Error("ragged ciphertext accepted")
	}
}

func BenchmarkEncrypt128(b *testing.B) {
	c, _ := NewAES(make([]byte, 16))
	src := make([]byte, 16)
	dst := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(dst, src)
	}
}

func BenchmarkEncrypt256Block256(b *testing.B) {
	c, _ := New(make([]byte, 32), 32)
	src := make([]byte, 32)
	dst := make([]byte, 32)
	b.SetBytes(32)
	for i := 0; i < b.N; i++ {
		c.Encrypt(dst, src)
	}
}
