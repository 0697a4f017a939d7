// Package aes implements the Rijndael block cipher from scratch, in the
// configuration space the issl library exposed: key lengths of 128, 192
// or 256 bits AND block lengths of 128, 192 or 256 bits. (FIPS-197 AES
// is the Nb=4 subset.) The RMC2000 port described in the paper dropped
// everything but 128-bit keys and blocks; issl's embedded profile
// enforces that reduced configuration.
//
// Three implementations coexist. On amd64 CPUs with AES-NI the
// FIPS-197 geometry (16-byte blocks, every key size) runs in the
// AESENC/AESDEC kernels of aes_amd64.s, the host's counterpart of the
// paper's hand-assembled Rabbit AES (asm/aes128.asm, exercised on the
// CPU simulator by the E1 benchmark). Elsewhere that geometry takes the
// precomputed T-table path (ttable.go). The byte-oriented
// transliteration of the Rijndael specification, the same style as the
// portable C code the paper ported, is the only implementation for
// 192/256-bit blocks and the in-package oracle both fast paths are
// tested against. New picks the path once per Cipher, from CPUID
// unless SetHardware says otherwise, and builds only that path's key
// schedule.
//
// The T-table path indexes its tables with key- and data-dependent
// bytes, so its cache footprint leaks key material to a timing
// attacker sharing the CPU; the AES-NI rounds touch no tables (the key
// schedule is still expanded through the S-box, once per key).
package aes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Block/key sizes in bytes accepted by New.
const (
	Size128 = 16
	Size192 = 24
	Size256 = 32
)

// Cipher is a Rijndael instance with a fixed key schedule.
// It is safe for concurrent use once created. Its schedules live in
// arrays inside it, so one built in place by Init costs no allocation;
// a Cipher must not be copied once keyed.
type Cipher struct {
	nb     int      // block size in 32-bit words (4, 6 or 8)
	nk     int      // key size in 32-bit words (4, 6 or 8)
	nr     int      // number of rounds
	rk     []uint32 // expanded key, (nr+1)*nb words
	drk    []uint32 // equivalent-inverse key for the Nb=4 T-table path
	ek, dk []byte   // AES-NI round keys, byte order; nil off that path
	shifts [4]int   // ShiftRows offsets per row

	// Backing for rk, drk and ek+dk at their largest: 15 rounds of 8
	// words, and 15 of 4 for the 16-byte-block schedules.
	rkBuf  [15 * 8]uint32
	drkBuf [15 * 4]uint32
	xkBuf  [2 * 15 * 16]byte
}

// useAESNI selects the AES-NI path for the 16-byte-block ciphers New
// builds. It starts as hasAESNI; SetHardware changes it.
var useAESNI atomic.Bool

// SetHardware chooses the path for the 16-byte-block ciphers New builds
// from now on: the AES-NI kernels (on, where CPUID reports AES-NI) or
// the portable T-table code (off). Ciphers already built keep their
// path. It returns the previous choice; the default is on. E4 turns it
// off to measure the software SSL the paper's claim is about, and the
// tests run both paths on one host.
func SetHardware(on bool) (was bool) { return useAESNI.Swap(on && hasAESNI) }

var (
	// ErrKeySize is returned for key lengths other than 16/24/32 bytes.
	ErrKeySize = errors.New("aes: invalid key size")
	// ErrBlockSize is returned for block lengths other than 16/24/32 bytes.
	ErrBlockSize = errors.New("aes: invalid block size")
)

// sbox and inverse sbox are generated at init from the GF(2^8)
// multiplicative inverse and the Rijndael affine transform, so they are
// correct by construction rather than by transcription.
var (
	sbox  [256]byte
	isbox [256]byte
)

func init() {
	// Build log/antilog tables over GF(2^8) with generator 3.
	var exp [256]byte
	var log [256]byte
	x := byte(1)
	for i := 0; i < 256; i++ {
		exp[i] = x
		log[x] = byte(i)
		// multiply x by 3 = x + x*2 in GF(2^8)
		x ^= xtime(x)
	}
	inv := func(b byte) byte {
		if b == 0 {
			return 0
		}
		return exp[(255-int(log[b]))%255]
	}
	for i := 0; i < 256; i++ {
		v := inv(byte(i))
		// affine transform: b ^ rot1(b) ^ rot2(b) ^ rot3(b) ^ rot4(b) ^ 0x63
		s := v ^ rotl8(v, 1) ^ rotl8(v, 2) ^ rotl8(v, 3) ^ rotl8(v, 4) ^ 0x63
		sbox[i] = s
		isbox[s] = byte(i)
	}
	initTables()
	useAESNI.Store(hasAESNI)
}

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

// xtime multiplies by x (i.e. 2) in GF(2^8) modulo x^8+x^4+x^3+x+1.
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// gmul multiplies two field elements.
func gmul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

// New creates a Rijndael cipher with the given key and block size in
// bytes. blockSize must be 16, 24 or 32; len(key) must be 16, 24 or 32.
func New(key []byte, blockSize int) (*Cipher, error) {
	c := new(Cipher)
	if err := c.Init(key, blockSize); err != nil {
		return nil, err
	}
	return c, nil
}

// Init keys c in place with New's arguments and checks, replacing any
// earlier key. The issl record layer keeps its two ciphers by value in
// each connection and keys them here.
func (c *Cipher) Init(key []byte, blockSize int) error {
	nk, ok := words(len(key))
	if !ok {
		return fmt.Errorf("%w: %d bytes", ErrKeySize, len(key))
	}
	nb, ok := words(blockSize)
	if !ok {
		return fmt.Errorf("%w: %d bytes", ErrBlockSize, blockSize)
	}
	c.nb, c.nk = nb, nk
	c.drk, c.ek, c.dk = nil, nil, nil
	c.nr = max(nb, nk) + 6
	// ShiftRows offsets depend on block size (Rijndael spec, table 2).
	switch nb {
	case 8:
		c.shifts = [4]int{0, 1, 3, 4}
	default:
		c.shifts = [4]int{0, 1, 2, 3}
	}
	c.expandKey(key)
	return nil
}

// NewAES creates a FIPS-197 AES cipher (16-byte block) with a 16-, 24-
// or 32-byte key.
func NewAES(key []byte) (*Cipher, error) { return New(key, Size128) }

func words(n int) (int, bool) {
	switch n {
	case Size128:
		return 4, true
	case Size192:
		return 6, true
	case Size256:
		return 8, true
	}
	return 0, false
}

// BlockSize returns the cipher's block size in bytes.
func (c *Cipher) BlockSize() int { return c.nb * 4 }

func (c *Cipher) expandKey(key []byte) {
	total := (c.nr + 1) * c.nb
	c.rk = c.rkBuf[:total]
	for i := 0; i < c.nk; i++ {
		c.rk[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 |
			uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	rcon := uint32(1)
	for i := c.nk; i < total; i++ {
		t := c.rk[i-1]
		switch {
		case i%c.nk == 0:
			t = subWord(rotWord(t)) ^ rcon<<24
			rcon = uint32(xtime(byte(rcon)))
		case c.nk > 6 && i%c.nk == 4:
			t = subWord(t)
		}
		c.rk[i] = c.rk[i-c.nk] ^ t
	}
	if c.nb != 4 {
		return
	}
	if useAESNI.Load() {
		c.expandKeyNI()
	} else {
		c.expandDecKey()
	}
}

// expandKeyNI lays the schedule out for the AES-NI kernels: each round
// key's four words as 16 bytes, then the equivalent-inverse keys
// (AESIMC on the middle ones) for AESDEC. Both share xkBuf.
func (c *Cipher) expandKeyNI() {
	n := len(c.rk) * 4
	xk := c.xkBuf[:2*n]
	for i, w := range c.rk {
		binary.BigEndian.PutUint32(xk[4*i:], w)
	}
	c.ek, c.dk = xk[:n:n], xk[n:]
	expandDecNI(c.nr, &c.ek[0], &c.dk[0])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

// Encrypt encrypts exactly one block from src into dst.
// dst and src may overlap. It panics if either is shorter than BlockSize.
func (c *Cipher) Encrypt(dst, src []byte) {
	bs := c.BlockSize()
	if len(src) < bs || len(dst) < bs {
		panic("aes: input not full block")
	}
	switch {
	case c.ek != nil:
		encryptBlockNI(c.nr, &c.ek[0], &dst[0], &src[0])
	case c.nb == 4:
		c.encryptBlock4(dst, src)
	default:
		c.encryptGeneric(dst, src)
	}
}

// encryptGeneric is the byte-oriented spec transliteration, used for
// the big Rijndael blocks and as the fast paths' oracle.
func (c *Cipher) encryptGeneric(dst, src []byte) {
	bs := c.BlockSize()
	var st [32]byte // column-major state, 4 rows x nb cols
	copy(st[:], src[:bs])
	c.addRoundKey(&st, 0)
	for round := 1; round < c.nr; round++ {
		c.subBytes(&st)
		c.shiftRows(&st)
		c.mixColumns(&st)
		c.addRoundKey(&st, round)
	}
	c.subBytes(&st)
	c.shiftRows(&st)
	c.addRoundKey(&st, c.nr)
	copy(dst[:bs], st[:bs])
}

// Decrypt decrypts exactly one block from src into dst.
func (c *Cipher) Decrypt(dst, src []byte) {
	bs := c.BlockSize()
	if len(src) < bs || len(dst) < bs {
		panic("aes: input not full block")
	}
	switch {
	case c.dk != nil:
		decryptBlockNI(c.nr, &c.dk[0], &dst[0], &src[0])
	case c.nb == 4:
		c.decryptBlock4(dst, src)
	default:
		c.decryptGeneric(dst, src)
	}
}

// decryptGeneric is the byte-oriented inverse cipher.
func (c *Cipher) decryptGeneric(dst, src []byte) {
	bs := c.BlockSize()
	var st [32]byte
	copy(st[:], src[:bs])
	c.addRoundKey(&st, c.nr)
	c.invShiftRows(&st)
	c.invSubBytes(&st)
	for round := c.nr - 1; round > 0; round-- {
		c.addRoundKey(&st, round)
		c.invMixColumns(&st)
		c.invShiftRows(&st)
		c.invSubBytes(&st)
	}
	c.addRoundKey(&st, 0)
	copy(dst[:bs], st[:bs])
}

func (c *Cipher) addRoundKey(st *[32]byte, round int) {
	base := round * c.nb
	for col := 0; col < c.nb; col++ {
		w := c.rk[base+col]
		st[4*col] ^= byte(w >> 24)
		st[4*col+1] ^= byte(w >> 16)
		st[4*col+2] ^= byte(w >> 8)
		st[4*col+3] ^= byte(w)
	}
}

func (c *Cipher) subBytes(st *[32]byte) {
	for i := 0; i < c.nb*4; i++ {
		st[i] = sbox[st[i]]
	}
}

func (c *Cipher) invSubBytes(st *[32]byte) {
	for i := 0; i < c.nb*4; i++ {
		st[i] = isbox[st[i]]
	}
}

func (c *Cipher) shiftRows(st *[32]byte) {
	var tmp [8]byte
	for row := 1; row < 4; row++ {
		s := c.shifts[row]
		for col := 0; col < c.nb; col++ {
			tmp[col] = st[4*((col+s)%c.nb)+row]
		}
		for col := 0; col < c.nb; col++ {
			st[4*col+row] = tmp[col]
		}
	}
}

func (c *Cipher) invShiftRows(st *[32]byte) {
	var tmp [8]byte
	for row := 1; row < 4; row++ {
		s := c.shifts[row]
		for col := 0; col < c.nb; col++ {
			tmp[(col+s)%c.nb] = st[4*col+row]
		}
		for col := 0; col < c.nb; col++ {
			st[4*col+row] = tmp[col]
		}
	}
}

func (c *Cipher) mixColumns(st *[32]byte) {
	for col := 0; col < c.nb; col++ {
		a0, a1, a2, a3 := st[4*col], st[4*col+1], st[4*col+2], st[4*col+3]
		st[4*col] = gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3
		st[4*col+1] = a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3
		st[4*col+2] = a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3)
		st[4*col+3] = gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2)
	}
}

func (c *Cipher) invMixColumns(st *[32]byte) {
	for col := 0; col < c.nb; col++ {
		a0, a1, a2, a3 := st[4*col], st[4*col+1], st[4*col+2], st[4*col+3]
		st[4*col] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9)
		st[4*col+1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13)
		st[4*col+2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11)
		st[4*col+3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14)
	}
}
