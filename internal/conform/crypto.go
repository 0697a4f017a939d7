package conform

// Crypto-layer differential checks: every from-scratch kernel under
// internal/crypto is driven side by side with an independent oracle —
// the Go standard library where it has one (crypto/aes, crypto/sha1,
// crypto/hmac, crypto/rsa, math/big) and checked-in published vectors
// (FIPS-197, FIPS 180, RFC 2202, the ANSI C rand() sequence) where the
// oracle is a document rather than a package.

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	stdrsa "crypto/rsa"
	stdsha1 "crypto/sha1"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"strings"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/bignum"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
)

//go:embed testdata/fips197.json
var fips197JSON []byte

//go:embed testdata/sha1_nist.json
var sha1NISTJSON []byte

// --- AES ---------------------------------------------------------------------

var aesKeySizes = []int{16, 24, 32}

// checkAESDifferential fuzzes internal/crypto/aes against crypto/aes:
// raw blocks for every FIPS key size, CBC and CTR against crypto/cipher,
// encrypt/decrypt round-trips for the big Rijndael blocks the stdlib
// cannot oracle, and PKCS#7 pad/unpad inversion.
func checkAESDifferential(c *checkCtx) {
	for i := 0; c.vectors < c.budget; i++ {
		keyLen := aesKeySizes[c.rng.Intn(len(aesKeySizes))]
		key := randBytes(c.rng, keyLen)
		ours, err := aes.NewAES(key)
		if err != nil {
			c.failf("NewAES(%d-byte key): %v", keyLen, err)
			continue
		}
		std, err := stdaes.NewCipher(key)
		if err != nil {
			c.err = fmt.Errorf("stdlib NewCipher: %w", err)
			return
		}
		switch i % 4 {
		case 0: // single-block encrypt + decrypt
			pt := randBytes(c.rng, 16)
			got, want := make([]byte, 16), make([]byte, 16)
			ours.Encrypt(got, pt)
			std.Encrypt(want, pt)
			c.expect(got, want, "AES-%d encrypt pt=%x", keyLen*8, pt)
			back := make([]byte, 16)
			ours.Decrypt(back, want)
			stdBack := make([]byte, 16)
			std.Decrypt(stdBack, want)
			c.expect(back, stdBack, "AES-%d decrypt ct=%x", keyLen*8, want)
		case 1: // Rijndael big blocks: no stdlib oracle, so invert
			bs := []int{24, 32}[c.rng.Intn(2)]
			rj, err := aes.New(key, bs)
			if err != nil {
				c.failf("New(%d,%d): %v", keyLen, bs, err)
				continue
			}
			pt := randBytes(c.rng, bs)
			ct := make([]byte, bs)
			rj.Encrypt(ct, pt)
			back := make([]byte, bs)
			rj.Decrypt(back, ct)
			c.expect(back, pt, "Rijndael %d/%d round-trip", keyLen*8, bs*8)
		case 2: // CBC both directions vs crypto/cipher
			iv := randBytes(c.rng, 16)
			pt := randBytes(c.rng, 16*(1+c.rng.Intn(4)))
			got, err := encryptCBC(ours, iv, pt)
			if err != nil {
				c.failf("EncryptCBC: %v", err)
				continue
			}
			want := make([]byte, len(pt))
			cipher.NewCBCEncrypter(std, iv).CryptBlocks(want, pt)
			c.expect(got, want, "CBC-%d encrypt %dB", keyLen*8, len(pt))
			dec, err := decryptCBC(ours, iv, want)
			if err != nil {
				c.failf("DecryptCBC: %v", err)
				continue
			}
			c.expect(dec, pt, "CBC-%d decrypt %dB", keyLen*8, len(pt))
		case 3: // CTR (any length) vs crypto/cipher, pad/unpad inversion
			nonce := randBytes(c.rng, 16)
			data := randBytes(c.rng, 1+c.rng.Intn(100))
			got, err := ctr(ours, nonce, data)
			if err != nil {
				c.failf("CTR: %v", err)
				continue
			}
			want := make([]byte, len(data))
			cipher.NewCTR(std, nonce).XORKeyStream(want, data)
			c.expect(got, want, "CTR-%d %dB", keyLen*8, len(data))
			padded := ours.Pad(data)
			if len(padded)%16 != 0 || len(padded) <= len(data) {
				c.failf("Pad(%dB) -> %dB", len(data), len(padded))
			}
			unpadded, err := ours.Unpad(padded)
			if err != nil {
				c.failf("Unpad: %v", err)
				continue
			}
			c.expect(unpadded, data, "pad round-trip %dB", len(data))
		}
	}
}

// encryptCBC and decryptCBC are the allocating forms of the in-place
// CBC kernels the record layer runs, so the check can diff a fresh
// output against crypto/cipher's.
func encryptCBC(c *aes.Cipher, iv, pt []byte) ([]byte, error) {
	out := append([]byte(nil), pt...)
	if err := c.EncryptCBCInPlace(iv, out); err != nil {
		return nil, err
	}
	return out, nil
}

func decryptCBC(c *aes.Cipher, iv, ct []byte) ([]byte, error) {
	out := append([]byte(nil), ct...)
	if err := c.DecryptCBCInPlace(iv, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ctr XORs data with the keystream of a big-endian block counter that
// starts at nonce. Encryption and decryption are the same operation.
// No production path runs CTR; the check keeps it as a second mode
// over the block cipher, diffed against crypto/cipher.NewCTR.
func ctr(c *aes.Cipher, nonce, data []byte) ([]byte, error) {
	bs := c.BlockSize()
	if len(nonce) != bs {
		return nil, fmt.Errorf("aes: nonce must be %d bytes, got %d", bs, len(nonce))
	}
	counter := append([]byte(nil), nonce...)
	ks := make([]byte, bs)
	out := make([]byte, len(data))
	for off := 0; off < len(data); off += bs {
		c.Encrypt(ks, counter)
		n := min(bs, len(data)-off)
		for i := 0; i < n; i++ {
			out[off+i] = data[off+i] ^ ks[i]
		}
		for i := bs - 1; i >= 0; i-- {
			counter[i]++
			if counter[i] != 0 {
				break
			}
		}
	}
	return out, nil
}

// checkAESGolden replays the checked-in FIPS-197 known-answer vectors.
func checkAESGolden(c *checkCtx) {
	var vecs []struct {
		Name       string `json:"name"`
		Key        string `json:"key"`
		Plaintext  string `json:"plaintext"`
		Ciphertext string `json:"ciphertext"`
	}
	if err := json.Unmarshal(fips197JSON, &vecs); err != nil {
		c.err = err
		return
	}
	for _, v := range vecs {
		key, pt, ct := mustHex(v.Key), mustHex(v.Plaintext), mustHex(v.Ciphertext)
		ours, err := aes.NewAES(key)
		if err != nil {
			c.failf("%s: %v", v.Name, err)
			continue
		}
		got := make([]byte, 16)
		ours.Encrypt(got, pt)
		c.expect(got, ct, "%s encrypt", v.Name)
		back := make([]byte, 16)
		ours.Decrypt(back, ct)
		c.expect(back, pt, "%s decrypt", v.Name)
	}
}

// --- SHA-1 / HMAC ------------------------------------------------------------

// checkSHA1Differential drives the streaming digest and the HMAC
// against crypto/sha1 and crypto/hmac over random messages, random
// write splits, and mid-stream Sum calls.
func checkSHA1Differential(c *checkCtx) {
	for i := 0; c.vectors < c.budget; i++ {
		// Bias lengths toward the block/padding boundaries where
		// Merkle–Damgård implementations break.
		var n int
		switch i % 3 {
		case 0:
			n = c.rng.Intn(64)
		case 1:
			n = 50 + c.rng.Intn(32) // straddles the 55/56/64 padding edges
		default:
			n = c.rng.Intn(300)
		}
		msg := randBytes(c.rng, n)

		d := sha1.New()
		for off := 0; off < len(msg); {
			chunk := 1 + c.rng.Intn(len(msg)-off)
			d.Write(msg[off : off+chunk])
			off += chunk
		}
		want := stdsha1.Sum(msg)
		c.expect(d.Sum(nil), want[:], "sha1 %dB split-writes", n)

		// Sum must not disturb the running state: extend and re-check.
		ext := randBytes(c.rng, c.rng.Intn(80))
		d.Write(ext)
		full := stdsha1.Sum(append(append([]byte{}, msg...), ext...))
		c.expect(d.Sum(nil), full[:], "sha1 mid-stream Sum then +%dB", len(ext))

		oneShot := sha1.Sum1(msg)
		c.expect(oneShot[:], want[:], "Sum1 %dB", n)

		// HMAC with key lengths crossing BlockSize (64): the >64 branch
		// hashes the key first.
		key := randBytes(c.rng, c.rng.Intn(100))
		got := sha1.HMAC(key, msg)
		mac := hmac.New(stdsha1.New, key)
		mac.Write(msg)
		c.expect(got[:], mac.Sum(nil), "hmac key=%dB msg=%dB", len(key), n)
	}
}

// checkSHA1Golden replays the FIPS 180 digest vectors and the RFC 2202
// HMAC-SHA1 vectors.
func checkSHA1Golden(c *checkCtx) {
	var vecs struct {
		SHA1 []struct {
			Name   string `json:"name"`
			Msg    string `json:"msg"`
			Repeat int    `json:"repeat"`
			Digest string `json:"digest"`
		} `json:"sha1"`
		HMAC []struct {
			Name   string `json:"name"`
			Key    string `json:"key"`
			KeyHex string `json:"key_hex"`
			Msg    string `json:"msg"`
			MsgHex string `json:"msg_hex"`
			Digest string `json:"digest"`
		} `json:"hmac"`
	}
	if err := json.Unmarshal(sha1NISTJSON, &vecs); err != nil {
		c.err = err
		return
	}
	for _, v := range vecs.SHA1 {
		d := sha1.New()
		for i := 0; i < v.Repeat; i++ {
			d.Write([]byte(v.Msg))
		}
		c.expect(d.Sum(nil), mustHex(v.Digest), "%s", v.Name)
	}
	for _, v := range vecs.HMAC {
		key := []byte(v.Key)
		if v.KeyHex != "" {
			key = mustHex(v.KeyHex)
		}
		msg := []byte(v.Msg)
		if v.MsgHex != "" {
			msg = mustHex(v.MsgHex)
		}
		got := sha1.HMAC(key, msg)
		c.expect(got[:], mustHex(v.Digest), "%s", v.Name)
	}
}

// --- RSA ---------------------------------------------------------------------

// conformRSABits sizes the differential key. 512 keeps a 10k-vector
// run in seconds; correctness is size-independent (the bignum check
// exercises the arithmetic at larger operand shapes).
const conformRSABits = 512

// allowSmallRSA lets crypto/rsa accept the 512-bit differential key on
// toolchains (go >= 1.24) that reject small keys by default.
func allowSmallRSA() {
	if g := os.Getenv("GODEBUG"); !strings.Contains(g, "rsa1024min=0") {
		os.Setenv("GODEBUG", g+",rsa1024min=0")
	}
}

// checkRSADifferential cross-validates internal/crypto/rsa against
// crypto/rsa and math/big: ciphertext produced by one side must decrypt
// on the other, our generated key must pass the stdlib's structural
// Validate, and raw signatures must verify by independent modexp.
func checkRSADifferential(c *checkCtx) {
	allowSmallRSA()
	key, err := rsa.GenerateKey(prng.NewXorshift(uint64(c.rng.Int63())|1), conformRSABits)
	if err != nil {
		c.err = fmt.Errorf("keygen: %w", err)
		return
	}
	n := new(big.Int).SetBytes(key.N.Bytes())
	d := new(big.Int).SetBytes(key.D.Bytes())
	e := new(big.Int).SetBytes(key.E.Bytes())
	std := &stdrsa.PrivateKey{
		PublicKey: stdrsa.PublicKey{N: n, E: int(key.E.Uint64())},
		D:         d,
		Primes: []*big.Int{
			new(big.Int).SetBytes(key.P.Bytes()),
			new(big.Int).SetBytes(key.Q.Bytes()),
		},
	}
	std.Precompute()
	// The stdlib structurally validates our key generation: n = p*q,
	// p and q prime, d*e ≡ 1 (mod λ(n)).
	c.vector()
	if err := std.Validate(); err != nil {
		c.failf("stdlib Validate rejects our generated key: %v", err)
		return
	}

	padRng := prng.NewXorshift(uint64(c.rng.Int63()) | 1)
	kBytes := (key.N.BitLen() + 7) / 8
	for i := 0; c.vectors < c.budget; i++ {
		if i%10 != 0 {
			// Cheap public-op vector: x^e mod n, ours vs math/big.
			x := bignum.FromBytes(randBytes(c.rng, kBytes-1))
			got := x.ModExp(key.E, key.N)
			want := new(big.Int).Exp(new(big.Int).SetBytes(x.Bytes()), e, n)
			c.expect(got.Bytes(), want.Bytes(), "modexp(e) vector %d", i)
			continue
		}
		msg := randBytes(c.rng, 1+c.rng.Intn(key.MaxPlaintext()))

		// Ours encrypts, the stdlib decrypts.
		ct, err := key.EncryptPKCS1(padRng, msg)
		if err != nil {
			c.failf("EncryptPKCS1(%dB): %v", len(msg), err)
			continue
		}
		pt, err := stdrsa.DecryptPKCS1v15(nil, std, ct)
		c.vector()
		if err != nil {
			c.failf("stdlib rejects our PKCS1 ciphertext: %v", err)
		} else if !bytesEqual(pt, msg) {
			c.failf("cross-decrypt: got %x, want %x", pt, msg)
		}

		// The stdlib encrypts, ours decrypts.
		ct2, err := stdrsa.EncryptPKCS1v15(rngReader{c.rng}, &std.PublicKey, msg)
		if err != nil {
			c.err = fmt.Errorf("stdlib encrypt: %w", err)
			return
		}
		pt2, err := key.DecryptPKCS1(ct2)
		c.vector()
		if err != nil {
			c.failf("we reject stdlib PKCS1 ciphertext: %v", err)
		} else if !bytesEqual(pt2, msg) {
			c.failf("cross-decrypt (std->ours): got %x, want %x", pt2, msg)
		}

		// Raw signature verified by independent modexp + padding parse.
		digest := randBytes(c.rng, 20)
		sig, err := key.SignRaw(digest)
		if err != nil {
			c.failf("SignRaw: %v", err)
			continue
		}
		em := new(big.Int).Exp(new(big.Int).SetBytes(sig), e, n).FillBytes(make([]byte, kBytes))
		c.vector()
		if rec, perr := parsePKCS1Type1(em); perr != nil {
			c.failf("signature padding (oracle view): %v", perr)
		} else if !bytesEqual(rec, digest) {
			c.failf("signature digest: got %x, want %x", rec, digest)
		}
		if rec, verr := key.VerifyRaw(sig); verr != nil || !bytesEqual(rec, digest) {
			c.vector()
			c.failf("VerifyRaw round-trip: %v", verr)
		}
	}
}

// parsePKCS1Type1 is an oracle-side PKCS#1 v1.5 type-1 parser (written
// against the spec, not against internal/crypto/rsa).
func parsePKCS1Type1(em []byte) ([]byte, error) {
	if len(em) < 11 || em[0] != 0x00 || em[1] != 0x01 {
		return nil, fmt.Errorf("bad header % x", em[:min(2, len(em))])
	}
	i := 2
	for ; i < len(em) && em[i] == 0xff; i++ {
	}
	if i < 10 || i == len(em) || em[i] != 0x00 {
		return nil, fmt.Errorf("bad padding run (len %d)", i-2)
	}
	return em[i+1:], nil
}

// rngReader adapts the vector generator to io.Reader for crypto/rsa.
type rngReader struct{ r *rand.Rand }

func (r rngReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.r.Intn(256))
	}
	return len(p), nil
}

// --- bignum ------------------------------------------------------------------

// checkBignumDifferential fuzzes every bignum operation against
// math/big over random and boundary-shaped operands. The shapes
// straddle both limb seams (2^32 and 2^64), where a limb-width bug
// would hide, and include the all-ones 4- and 8-limb values that the
// unrolled Montgomery kernels see as m = 2^(64n) − 1.
func checkBignumDifferential(c *checkCtx) {
	shapes := [][]byte{
		nil, {0}, {1}, {2}, {0xff},
		{0xff, 0xff, 0xff, 0xff}, // 2^32 - 1
		{1, 0, 0, 0, 0},          // 2^32
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // 2^64 - 1
		{1, 0, 0, 0, 0, 0, 0, 0, 0},                      // 2^64
		{1, 0, 0, 0, 1, 0, 0, 0, 1},                      // sparse across limbs
		bytes.Repeat([]byte{0xff}, 32),                   // 2^256 - 1
		bytes.Repeat([]byte{0xff}, 64),                   // 2^512 - 1
	}
	operand := func(maxLen int) ([]byte, bignum.Int, *big.Int) {
		var b []byte
		if c.rng.Intn(8) == 0 {
			b = shapes[c.rng.Intn(len(shapes))]
		} else {
			b = randBytes(c.rng, c.rng.Intn(maxLen+1))
		}
		return b, bignum.FromBytes(b), new(big.Int).SetBytes(b)
	}
	for c.vectors < c.budget {
		_, x, bx := operand(64)
		_, y, by := operand(64)

		c.expect(x.Add(y).Bytes(), new(big.Int).Add(bx, by).Bytes(), "add")
		c.expect(x.Mul(y).Bytes(), new(big.Int).Mul(bx, by).Bytes(), "mul")

		hi, lo, bhi, blo := x, y, bx, by
		if x.Cmp(y) < 0 {
			hi, lo, bhi, blo = y, x, by, bx
		}
		c.expect(hi.Sub(lo).Bytes(), new(big.Int).Sub(bhi, blo).Bytes(), "sub")

		c.vector()
		if got, want := x.Cmp(y), bx.Cmp(by); got != want {
			c.failf("cmp(%v,%v): got %d, want %d", bx, by, got, want)
		}
		c.vector()
		if got, want := x.BitLen(), bx.BitLen(); got != want {
			c.failf("bitlen(%v): got %d, want %d", bx, got, want)
		}

		if !y.IsZero() {
			q, r, err := x.DivMod(y)
			if err != nil {
				c.vector()
				c.failf("divmod error on nonzero divisor: %v", err)
			} else {
				bq, br := new(big.Int), new(big.Int)
				bq.QuoRem(bx, by, br)
				c.expect(q.Bytes(), bq.Bytes(), "div")
				c.expect(r.Bytes(), br.Bytes(), "mod")
			}
		} else if _, _, err := x.DivMod(y); err == nil {
			c.vector()
			c.failf("DivMod by zero did not error")
		}

		sh := c.rng.Intn(130)
		c.expect(x.Shl(sh).Bytes(), new(big.Int).Lsh(bx, uint(sh)).Bytes(), "shl %d", sh)
		c.expect(x.Shr(sh).Bytes(), new(big.Int).Rsh(bx, uint(sh)).Bytes(), "shr %d", sh)

		// Bounded operands for the quadratic/iterated ops.
		_, gx, bgx := operand(32)
		_, gy, bgy := operand(32)
		c.expect(gx.GCD(gy).Bytes(), new(big.Int).GCD(nil, nil, bgx, bgy).Bytes(), "gcd")

		// Force the modulus odd half the time so both ModExp paths run
		// (Montgomery for odd moduli, square-and-multiply for even).
		// Up to 64 bytes reaches every Montgomery kernel width: 1–8
		// limbs, the unrolled 4 and 8 among them.
		mb, m, bm := operand(64)
		if c.rng.Intn(2) == 0 && len(mb) > 0 {
			mb = append([]byte(nil), mb...)
			mb[len(mb)-1] |= 1
			m, bm = bignum.FromBytes(mb), new(big.Int).SetBytes(mb)
		}
		if !m.IsZero() {
			if c.rng.Intn(8) == 0 && m.Cmp(bignum.One()) > 0 {
				gx = m.Sub(bignum.One()) // x = m − 1
				bgx = new(big.Int).Sub(bm, big.NewInt(1))
			}
			eb := randBytes(c.rng, c.rng.Intn(13))
			got := gx.ModExp(bignum.FromBytes(eb), m)
			want := new(big.Int).Exp(bgx, new(big.Int).SetBytes(eb), bm)
			c.expect(got.Bytes(), want.Bytes(), "modexp")

			inv, ok := gx.ModInverse(m)
			winv := new(big.Int).ModInverse(bgx, bm)
			c.vector()
			if ok != (winv != nil) {
				c.failf("modinverse existence: ours %v, big %v (x=%v m=%v)", ok, winv != nil, bgx, m)
			} else if ok && !bytesEqual(inv.Bytes(), winv.Bytes()) {
				c.failf("modinverse: got %v, want %v", inv, winv)
			}
		}

		// Decimal round-trips are slow (repeated division); sample them.
		if c.rng.Intn(16) == 0 {
			c.vector()
			if got, want := x.String(), bx.String(); got != want {
				c.failf("string: got %s, want %s", got, want)
			}
			back, err := bignum.FromDecimal(bx.String())
			c.vector()
			if err != nil || back.Cmp(x) != 0 {
				c.failf("FromDecimal(%s): %v", bx.String(), err)
			}
		}
		c.expect(bignum.FromBytes(x.Bytes()).Bytes(), bx.Bytes(), "bytes round-trip")
	}
}

// --- PRNG --------------------------------------------------------------------

// refXorshiftStar is the oracle for prng.Xorshift, written directly
// from Vigna's published xorshift64* recipe (shifts 12/25/27,
// multiplier 2685821657736338717).
type refXorshiftStar struct{ s uint64 }

func (r *refXorshiftStar) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

// checkPRNGDifferential compares both generators against independent
// recipes: the LCG against the ANSI C reference formula, Xorshift
// against the published xorshift64* algorithm, and the byte/word
// convenience APIs against the raw 64-bit stream.
func checkPRNGDifferential(c *checkCtx) {
	for c.vectors < c.budget {
		seed := c.rng.Uint64()

		// LCG vs the ANSI formula (state*1103515245+12345, top of the
		// low 31 bits), 32 draws per seed.
		l := prng.NewLCG(uint32(seed))
		state := uint32(seed)
		for i := 0; i < 32; i++ {
			state = state*1103515245 + 12345
			want := int(state >> 16 & 0x7fff)
			got := l.Next()
			c.vector()
			if got != want {
				c.failf("LCG(seed %d) draw %d: got %d, want %d", uint32(seed), i, got, want)
			}
			if got < 0 || got > 32767 {
				c.failf("LCG value %d outside RAND_MAX", got)
			}
		}

		// Xorshift vs the reference recipe, 32 draws per seed.
		x := prng.NewXorshift(seed)
		ref := &refXorshiftStar{s: seed}
		if seed == 0 {
			ref.s = 0x9e3779b97f4a7c15 // the documented zero-seed remap
		}
		for i := 0; i < 32; i++ {
			got, want := x.Next64(), ref.next()
			c.vector()
			if got != want {
				c.failf("Xorshift(seed %#x) draw %d: got %#x, want %#x", seed, i, got, want)
			}
		}

		// Bytes/Fill must be the little-endian projection of the same
		// stream, and Uint32 its top word.
		n := 1 + c.rng.Intn(40)
		got := prng.NewXorshift(seed).Bytes(n)
		ref2 := &refXorshiftStar{s: seed}
		if seed == 0 {
			ref2.s = 0x9e3779b97f4a7c15
		}
		want := make([]byte, n)
		var w uint64
		for i := range want {
			if i%8 == 0 {
				w = ref2.next()
			}
			want[i] = byte(w)
			w >>= 8
		}
		c.expect(got, want, "Xorshift.Bytes(%d) seed %#x", n, seed)

		c.vector()
		if got, want := prng.NewXorshift(seed).Uint32(), uint32(ref2StepTop(seed)); got != want {
			c.failf("Uint32 seed %#x: got %#x, want %#x", seed, got, want)
		}
	}
}

func ref2StepTop(seed uint64) uint64 {
	r := &refXorshiftStar{s: seed}
	if seed == 0 {
		r.s = 0x9e3779b97f4a7c15
	}
	return r.next() >> 32
}

// ansiCRandSeed1 is the published sample sequence of the ANSI C
// reference rand() for srand(1) — the same constants §5 of the paper
// forced the port to reimplement.
var ansiCRandSeed1 = []int{16838, 5758, 10113, 17515, 31051, 5627, 23010, 7419, 16212, 4086}

// checkPRNGGolden replays the ANSI C rand() golden sequence, plus the
// zero-value contract (unseeded LCG behaves like srand(1)).
func checkPRNGGolden(c *checkCtx) {
	l := prng.NewLCG(1)
	for i, want := range ansiCRandSeed1 {
		c.vector()
		if got := l.Next(); got != want {
			c.failf("rand() draw %d after srand(1): got %d, want %d", i, got, want)
		}
	}
	var zero prng.LCG
	for i, want := range ansiCRandSeed1 {
		c.vector()
		if got := zero.Next(); got != want {
			c.failf("zero-value LCG draw %d: got %d, want %d", i, got, want)
		}
	}
}

// --- helpers -----------------------------------------------------------------

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(fmt.Sprintf("conform: bad hex in golden vector: %v", err))
	}
	return b
}
