package aes

// T-table fast path for the FIPS-197 geometry (Nb=4, the only block
// size the issl record layer runs hot) wherever the AES-NI kernels of
// aes_amd64.s do not run: other architectures, CPUs without AES-NI,
// and ciphers built after SetHardware(false). The four 256-entry
// tables fold SubBytes, ShiftRows and MixColumns into one lookup+XOR
// per state byte per round — the same transformation the paper
// applied by hand in Rabbit assembly, done here at the Go level. The
// cipher is one words-in, words-out round function per direction
// (encrypt4, decrypt4) shared by the single-block and CBC paths, and
// CBC keeps its chaining value in four uint32 locals, so the state
// stays in registers from the first block of a record to the last —
// the paper's §6 lesson at host scale. Tables are generated at init
// from the same GF(2^8) arithmetic as the S-boxes, so they are
// correct by construction; the byte-oriented spec transliteration in
// aes.go remains both the path for the big Rijndael blocks and the
// in-package oracle the tests diff against.

import "encoding/binary"

var (
	te0, te1, te2, te3 [256]uint32 // encryption: MixColumns∘SubBytes
	td0, td1, td2, td3 [256]uint32 // decryption: InvMixColumns∘InvSubBytes
)

// initTables is called from the package init in aes.go, after the
// S-boxes are built.
func initTables() {
	rotr8 := func(w uint32) uint32 { return w>>8 | w<<24 }
	for x := 0; x < 256; x++ {
		s := sbox[x]
		e := uint32(gmul(s, 2))<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(gmul(s, 3))
		te0[x] = e
		te1[x] = rotr8(e)
		te2[x] = rotr8(te1[x])
		te3[x] = rotr8(te2[x])

		si := isbox[x]
		d := uint32(gmul(si, 14))<<24 | uint32(gmul(si, 9))<<16 |
			uint32(gmul(si, 13))<<8 | uint32(gmul(si, 11))
		td0[x] = d
		td1[x] = rotr8(d)
		td2[x] = rotr8(td1[x])
		td3[x] = rotr8(td2[x])
	}
}

// expandDecKey derives the equivalent-inverse-cipher round keys for
// the Nb=4 decrypt fast path: the encryption schedule reversed, with
// InvMixColumns applied to every middle round key. InvMixColumns(w)
// is td0[sbox[·]]^… because td0∘sbox strips the InvSubBytes baked into
// the table. Called from expandKey when nb == 4.
func (c *Cipher) expandDecKey() {
	n := (c.nr + 1) * 4
	c.drk = c.drkBuf[:n]
	for i := 0; i < n; i += 4 {
		ei := n - i - 4
		for j := 0; j < 4; j++ {
			x := c.rk[ei+j]
			if i > 0 && i+4 < n {
				x = td0[sbox[x>>24]] ^ td1[sbox[x>>16&0xff]] ^
					td2[sbox[x>>8&0xff]] ^ td3[sbox[x&0xff]]
			}
			c.drk[i+j] = x
		}
	}
}

// encryptBlock4 encrypts one 16-byte block with the T-tables.
// dst and src may overlap. Allocation-free.
func (c *Cipher) encryptBlock4(dst, src []byte) {
	s0, s1, s2, s3 := c.encrypt4(loadBlock(src))
	putBlock(dst, s0, s1, s2, s3)
}

// decryptBlock4 decrypts one 16-byte block with the T-tables and the
// equivalent-inverse round keys. dst and src may overlap.
func (c *Cipher) decryptBlock4(dst, src []byte) {
	s0, s1, s2, s3 := c.decrypt4(loadBlock(src))
	putBlock(dst, s0, s1, s2, s3)
}

// loadBlock reads src[0:16] as four big-endian state words.
func loadBlock(src []byte) (uint32, uint32, uint32, uint32) {
	_ = src[15]
	return binary.BigEndian.Uint32(src[0:4]), binary.BigEndian.Uint32(src[4:8]),
		binary.BigEndian.Uint32(src[8:12]), binary.BigEndian.Uint32(src[12:16])
}

// putBlock stores four state words big-endian into dst[0:16].
func putBlock(dst []byte, s0, s1, s2, s3 uint32) {
	_ = dst[15]
	binary.BigEndian.PutUint32(dst[0:4], s0)
	binary.BigEndian.PutUint32(dst[4:8], s1)
	binary.BigEndian.PutUint32(dst[8:12], s2)
	binary.BigEndian.PutUint32(dst[12:16], s3)
}

// encrypt4 is the words-in, words-out cipher: the four state columns
// are big-endian words. The round keys are walked four at a time until
// the last four, which the final round uses; the loop condition is the
// bounds proof, so the rounds index rk unchecked.
func (c *Cipher) encrypt4(s0, s1, s2, s3 uint32) (uint32, uint32, uint32, uint32) {
	rk := c.rk
	_ = rk[3]
	s0 ^= rk[0]
	s1 ^= rk[1]
	s2 ^= rk[2]
	s3 ^= rk[3]
	for rk = rk[4:]; len(rk) > 4; rk = rk[4:] {
		t0 := rk[0] ^ te0[s0>>24] ^ te1[s1>>16&0xff] ^ te2[s2>>8&0xff] ^ te3[s3&0xff]
		t1 := rk[1] ^ te0[s1>>24] ^ te1[s2>>16&0xff] ^ te2[s3>>8&0xff] ^ te3[s0&0xff]
		t2 := rk[2] ^ te0[s2>>24] ^ te1[s3>>16&0xff] ^ te2[s0>>8&0xff] ^ te3[s1&0xff]
		t3 := rk[3] ^ te0[s3>>24] ^ te1[s0>>16&0xff] ^ te2[s1>>8&0xff] ^ te3[s2&0xff]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	// Final round: SubBytes + ShiftRows, no MixColumns.
	_ = rk[3]
	o0 := uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xff])<<16 |
		uint32(sbox[s2>>8&0xff])<<8 | uint32(sbox[s3&0xff])
	o1 := uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xff])<<16 |
		uint32(sbox[s3>>8&0xff])<<8 | uint32(sbox[s0&0xff])
	o2 := uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xff])<<16 |
		uint32(sbox[s0>>8&0xff])<<8 | uint32(sbox[s1&0xff])
	o3 := uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xff])<<16 |
		uint32(sbox[s1>>8&0xff])<<8 | uint32(sbox[s2&0xff])
	return o0 ^ rk[0], o1 ^ rk[1], o2 ^ rk[2], o3 ^ rk[3]
}

// decrypt4 is the words-in, words-out inverse cipher over the
// equivalent-inverse round keys.
func (c *Cipher) decrypt4(s0, s1, s2, s3 uint32) (uint32, uint32, uint32, uint32) {
	dk := c.drk
	_ = dk[3]
	s0 ^= dk[0]
	s1 ^= dk[1]
	s2 ^= dk[2]
	s3 ^= dk[3]
	for dk = dk[4:]; len(dk) > 4; dk = dk[4:] {
		t0 := dk[0] ^ td0[s0>>24] ^ td1[s3>>16&0xff] ^ td2[s2>>8&0xff] ^ td3[s1&0xff]
		t1 := dk[1] ^ td0[s1>>24] ^ td1[s0>>16&0xff] ^ td2[s3>>8&0xff] ^ td3[s2&0xff]
		t2 := dk[2] ^ td0[s2>>24] ^ td1[s1>>16&0xff] ^ td2[s0>>8&0xff] ^ td3[s3&0xff]
		t3 := dk[3] ^ td0[s3>>24] ^ td1[s2>>16&0xff] ^ td2[s1>>8&0xff] ^ td3[s0&0xff]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	_ = dk[3]
	o0 := uint32(isbox[s0>>24])<<24 | uint32(isbox[s3>>16&0xff])<<16 |
		uint32(isbox[s2>>8&0xff])<<8 | uint32(isbox[s1&0xff])
	o1 := uint32(isbox[s1>>24])<<24 | uint32(isbox[s0>>16&0xff])<<16 |
		uint32(isbox[s3>>8&0xff])<<8 | uint32(isbox[s2&0xff])
	o2 := uint32(isbox[s2>>24])<<24 | uint32(isbox[s1>>16&0xff])<<16 |
		uint32(isbox[s0>>8&0xff])<<8 | uint32(isbox[s3&0xff])
	o3 := uint32(isbox[s3>>24])<<24 | uint32(isbox[s2>>16&0xff])<<16 |
		uint32(isbox[s1>>8&0xff])<<8 | uint32(isbox[s0&0xff])
	return o0 ^ dk[0], o1 ^ dk[1], o2 ^ dk[2], o3 ^ dk[3]
}

// encryptCBC4 chains buf (a whole number of 16-byte blocks) in place.
// The chaining value lives in four words, so a block costs one load,
// one cipher call and one store.
func (c *Cipher) encryptCBC4(iv, buf []byte) {
	v0, v1, v2, v3 := loadBlock(iv)
	for ; len(buf) >= 16; buf = buf[16:] {
		p0, p1, p2, p3 := loadBlock(buf)
		v0, v1, v2, v3 = c.encrypt4(v0^p0, v1^p1, v2^p2, v3^p3)
		putBlock(buf, v0, v1, v2, v3)
	}
}

// decryptCBC4 reverses encryptCBC4, carrying the previous ciphertext
// block in four words.
func (c *Cipher) decryptCBC4(iv, buf []byte) {
	v0, v1, v2, v3 := loadBlock(iv)
	for ; len(buf) >= 16; buf = buf[16:] {
		c0, c1, c2, c3 := loadBlock(buf)
		p0, p1, p2, p3 := c.decrypt4(c0, c1, c2, c3)
		putBlock(buf, p0^v0, p1^v1, p2^v2, p3^v3)
		v0, v1, v2, v3 = c0, c1, c2, c3
	}
}
