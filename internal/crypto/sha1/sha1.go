// Package sha1 implements the SHA-1 hash and HMAC-SHA1 without
// crypto/sha1, which is imported only by the tests as their oracle.
// SSL-era libraries like issl used MD5/SHA-1 for key derivation and
// record authentication; this package supplies both needs for the
// simulated library.
//
// SHA-1 is obsolete for collision resistance today; it is used here
// solely to reproduce a 2003-era protocol stack.
//
// The compression function takes a whole run of blocks per call: Write
// hands it every complete block of a write at once. On amd64 CPUs with
// SHA-NI the run goes to the assembly kernel in sha1_amd64.s, which
// keeps A..D and E in two vector registers and does four rounds per
// SHA1RNDS4, with SHA1MSG1/SHA1MSG2 computing the message schedule.
// Elsewhere the Go rounds run: the chaining value stays in locals from
// one block to the next, and each block's 80 rounds are written out as
// four 20-round stages (constant f and k per stage) in groups of five,
// with the working-variable names rotating through the group instead of
// shuffling five registers every round. The streaming paths allocate
// nothing, so the issl record layer can MAC every record without
// garbage. The package tests diff both paths against crypto/sha1.
package sha1

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
)

// Size is the digest length in bytes.
const Size = 20

// BlockSize is the compression-function block length in bytes.
const BlockSize = 64

// useSHANI routes compress to the SHA-NI kernel. It starts as
// hasSHANI; SetHardware changes it.
var useSHANI atomic.Bool

func init() { useSHANI.Store(hasSHANI) }

// SetHardware chooses the compression function every Digest uses from
// now on: the SHA-NI kernel (on, where CPUID reports SHA-NI, SSSE3 and
// SSE4.1) or the portable Go rounds (off). Both compute the same
// digest, so a switch mid-stream is harmless. It returns the previous
// choice; the default is on. E4 turns it off to measure the software
// SSL the paper's claim is about, and the tests run both paths on one
// host.
func SetHardware(on bool) (was bool) { return useSHANI.Swap(on && hasSHANI) }

// Digest is a streaming SHA-1 computation. The zero value is NOT
// ready; use New.
type Digest struct {
	h      [5]uint32
	block  [BlockSize]byte
	nBlock int
	length uint64
}

// New returns an initialized SHA-1 state.
func New() *Digest {
	d := &Digest{}
	d.Reset()
	return d
}

// Reset restores the initial state.
func (d *Digest) Reset() {
	d.h = [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	d.nBlock = 0
	d.length = 0
}

// Write absorbs data. It never fails.
func (d *Digest) Write(p []byte) (int, error) {
	n := len(p)
	d.length += uint64(n)
	if d.nBlock > 0 {
		c := copy(d.block[d.nBlock:], p)
		d.nBlock += c
		p = p[c:]
		if d.nBlock == BlockSize {
			d.compress(d.block[:])
			d.nBlock = 0
		}
	}
	if whole := len(p) &^ (BlockSize - 1); whole > 0 {
		d.compress(p[:whole])
		p = p[whole:]
	}
	if len(p) > 0 {
		d.nBlock = copy(d.block[:], p)
	}
	return n, nil
}

// Sum appends the digest of everything written so far to b, without
// disturbing the running state.
func (d *Digest) Sum(b []byte) []byte {
	var out [Size]byte
	d.SumInto(&out)
	return append(b, out[:]...)
}

// SumInto writes the digest of everything written so far into out,
// without disturbing the running state and without allocating.
func (d *Digest) SumInto(out *[Size]byte) {
	cp := *d
	bitLen := cp.length * 8
	// Padding: 0x80, zeros to 56 mod 64, then the 64-bit length.
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	padLen := 1 + (55-int(cp.length)%BlockSize+BlockSize)%BlockSize
	for i := 0; i < 8; i++ {
		pad[padLen+i] = byte(bitLen >> (56 - 8*i))
	}
	cp.Write(pad[:padLen+8])
	for i, w := range cp.h {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
}

// compress absorbs p, a whole number of blocks: in the SHA-NI kernel
// where the CPU has one, else in compressGeneric.
func (d *Digest) compress(p []byte) {
	if useSHANI.Load() {
		blockSHANI(&d.h, p)
		return
	}
	d.compressGeneric(p)
}

// compressGeneric is the portable compression function. It keeps the
// chaining value in locals across the run, and writes the 80 rounds out
// in groups of five: each line is one round with the roles of a..e
// rotated one place from the line before, so after five rounds every
// name is back in place and no round shuffles five registers. Written
// out, every message-schedule index is a constant.
func (d *Digest) compressGeneric(p []byte) {
	var w [16]uint32
	h0, h1, h2, h3, h4 := d.h[0], d.h[1], d.h[2], d.h[3], d.h[4]
	for ; len(p) >= BlockSize; p = p[BlockSize:] {
		for i := range w {
			w[i] = binary.BigEndian.Uint32(p[4*i:])
		}
		a, b, c, dd, e := h0, h1, h2, h3, h4

		// Rounds 0-19: f = Ch, k = 0x5a827999; 0-15 read the block's words.
		e, b = round1(a, b, c, dd, e, w[0])
		dd, a = round1(e, a, b, c, dd, w[1])
		c, e = round1(dd, e, a, b, c, w[2])
		b, dd = round1(c, dd, e, a, b, w[3])
		a, c = round1(b, c, dd, e, a, w[4])

		e, b = round1(a, b, c, dd, e, w[5])
		dd, a = round1(e, a, b, c, dd, w[6])
		c, e = round1(dd, e, a, b, c, w[7])
		b, dd = round1(c, dd, e, a, b, w[8])
		a, c = round1(b, c, dd, e, a, w[9])

		e, b = round1(a, b, c, dd, e, w[10])
		dd, a = round1(e, a, b, c, dd, w[11])
		c, e = round1(dd, e, a, b, c, w[12])
		b, dd = round1(c, dd, e, a, b, w[13])
		a, c = round1(b, c, dd, e, a, w[14])

		e, b = round1(a, b, c, dd, e, w[15])
		dd, a = round1(e, a, b, c, dd, schedule(&w, 16))
		c, e = round1(dd, e, a, b, c, schedule(&w, 17))
		b, dd = round1(c, dd, e, a, b, schedule(&w, 18))
		a, c = round1(b, c, dd, e, a, schedule(&w, 19))

		// Rounds 20-39: f = Parity, k = 0x6ed9eba1.
		e, b = round2(a, b, c, dd, e, schedule(&w, 20))
		dd, a = round2(e, a, b, c, dd, schedule(&w, 21))
		c, e = round2(dd, e, a, b, c, schedule(&w, 22))
		b, dd = round2(c, dd, e, a, b, schedule(&w, 23))
		a, c = round2(b, c, dd, e, a, schedule(&w, 24))

		e, b = round2(a, b, c, dd, e, schedule(&w, 25))
		dd, a = round2(e, a, b, c, dd, schedule(&w, 26))
		c, e = round2(dd, e, a, b, c, schedule(&w, 27))
		b, dd = round2(c, dd, e, a, b, schedule(&w, 28))
		a, c = round2(b, c, dd, e, a, schedule(&w, 29))

		e, b = round2(a, b, c, dd, e, schedule(&w, 30))
		dd, a = round2(e, a, b, c, dd, schedule(&w, 31))
		c, e = round2(dd, e, a, b, c, schedule(&w, 32))
		b, dd = round2(c, dd, e, a, b, schedule(&w, 33))
		a, c = round2(b, c, dd, e, a, schedule(&w, 34))

		e, b = round2(a, b, c, dd, e, schedule(&w, 35))
		dd, a = round2(e, a, b, c, dd, schedule(&w, 36))
		c, e = round2(dd, e, a, b, c, schedule(&w, 37))
		b, dd = round2(c, dd, e, a, b, schedule(&w, 38))
		a, c = round2(b, c, dd, e, a, schedule(&w, 39))

		// Rounds 40-59: f = Maj, k = 0x8f1bbcdc.
		e, b = round3(a, b, c, dd, e, schedule(&w, 40))
		dd, a = round3(e, a, b, c, dd, schedule(&w, 41))
		c, e = round3(dd, e, a, b, c, schedule(&w, 42))
		b, dd = round3(c, dd, e, a, b, schedule(&w, 43))
		a, c = round3(b, c, dd, e, a, schedule(&w, 44))

		e, b = round3(a, b, c, dd, e, schedule(&w, 45))
		dd, a = round3(e, a, b, c, dd, schedule(&w, 46))
		c, e = round3(dd, e, a, b, c, schedule(&w, 47))
		b, dd = round3(c, dd, e, a, b, schedule(&w, 48))
		a, c = round3(b, c, dd, e, a, schedule(&w, 49))

		e, b = round3(a, b, c, dd, e, schedule(&w, 50))
		dd, a = round3(e, a, b, c, dd, schedule(&w, 51))
		c, e = round3(dd, e, a, b, c, schedule(&w, 52))
		b, dd = round3(c, dd, e, a, b, schedule(&w, 53))
		a, c = round3(b, c, dd, e, a, schedule(&w, 54))

		e, b = round3(a, b, c, dd, e, schedule(&w, 55))
		dd, a = round3(e, a, b, c, dd, schedule(&w, 56))
		c, e = round3(dd, e, a, b, c, schedule(&w, 57))
		b, dd = round3(c, dd, e, a, b, schedule(&w, 58))
		a, c = round3(b, c, dd, e, a, schedule(&w, 59))

		// Rounds 60-79: f = Parity, k = 0xca62c1d6.
		e, b = round4(a, b, c, dd, e, schedule(&w, 60))
		dd, a = round4(e, a, b, c, dd, schedule(&w, 61))
		c, e = round4(dd, e, a, b, c, schedule(&w, 62))
		b, dd = round4(c, dd, e, a, b, schedule(&w, 63))
		a, c = round4(b, c, dd, e, a, schedule(&w, 64))

		e, b = round4(a, b, c, dd, e, schedule(&w, 65))
		dd, a = round4(e, a, b, c, dd, schedule(&w, 66))
		c, e = round4(dd, e, a, b, c, schedule(&w, 67))
		b, dd = round4(c, dd, e, a, b, schedule(&w, 68))
		a, c = round4(b, c, dd, e, a, schedule(&w, 69))

		e, b = round4(a, b, c, dd, e, schedule(&w, 70))
		dd, a = round4(e, a, b, c, dd, schedule(&w, 71))
		c, e = round4(dd, e, a, b, c, schedule(&w, 72))
		b, dd = round4(c, dd, e, a, b, schedule(&w, 73))
		a, c = round4(b, c, dd, e, a, schedule(&w, 74))

		e, b = round4(a, b, c, dd, e, schedule(&w, 75))
		dd, a = round4(e, a, b, c, dd, schedule(&w, 76))
		c, e = round4(dd, e, a, b, c, schedule(&w, 77))
		b, dd = round4(c, dd, e, a, b, schedule(&w, 78))
		a, c = round4(b, c, dd, e, a, schedule(&w, 79))

		h0 += a
		h1 += b
		h2 += c
		h3 += dd
		h4 += e
	}
	d.h = [5]uint32{h0, h1, h2, h3, h4}
}

// schedule computes message word i (16 <= i < 80) in the ring w.
func schedule(w *[16]uint32, i int) uint32 {
	x := bits.RotateLeft32(w[(i-3)&15]^w[(i-8)&15]^w[(i-14)&15]^w[i&15], 1)
	w[i&15] = x
	return x
}

// round1..round4 are one round of each 20-round stage: they return the
// new a (the sum that lands in e's register) and b rotated left by 30.
// rotl(a, 5) is added last, so the previous round's result is one add
// away from this one's.
func round1(a, b, c, d, e, x uint32) (uint32, uint32) {
	return bits.RotateLeft32(a, 5) + (e + x + 0x5a827999 + (d ^ b&(c^d))), bits.RotateLeft32(b, 30)
}

func round2(a, b, c, d, e, x uint32) (uint32, uint32) {
	return bits.RotateLeft32(a, 5) + (e + x + 0x6ed9eba1 + (b ^ c ^ d)), bits.RotateLeft32(b, 30)
}

func round3(a, b, c, d, e, x uint32) (uint32, uint32) {
	return bits.RotateLeft32(a, 5) + (e + x + 0x8f1bbcdc + (b&c | d&(b|c))), bits.RotateLeft32(b, 30)
}

func round4(a, b, c, d, e, x uint32) (uint32, uint32) {
	return bits.RotateLeft32(a, 5) + (e + x + 0xca62c1d6 + (b ^ c ^ d)), bits.RotateLeft32(b, 30)
}

// Sum1 is the one-shot convenience form.
func Sum1(data []byte) [Size]byte {
	var d Digest
	d.Reset()
	d.Write(data)
	var out [Size]byte
	d.SumInto(&out)
	return out
}

// HMAC computes HMAC-SHA1(key, msg) per RFC 2104.
func HMAC(key, msg []byte) [Size]byte {
	var h HMACState
	h.Init(key)
	h.Write(msg)
	var out [Size]byte
	h.SumInto(&out)
	return out
}

// HMACState is a reusable HMAC-SHA1 computation that caches the
// inner- and outer-pad digest states at key setup, so each message
// costs two fewer compressions than a from-scratch HMAC and the whole
// MAC path allocates nothing. Reset rewinds to the keyed state; the
// issl record layer Resets once per record.
type HMACState struct {
	inner, outer         Digest // running states
	innerInit, outerInit Digest // states right after absorbing the pads
}

// Init keys (or re-keys) the state.
func (h *HMACState) Init(key []byte) {
	var keyBuf [Size]byte
	if len(key) > BlockSize {
		var d Digest
		d.Reset()
		d.Write(key)
		d.SumInto(&keyBuf)
		key = keyBuf[:]
	}
	var ipad, opad [BlockSize]byte
	copy(ipad[:], key)
	copy(opad[:], key)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	h.innerInit.Reset()
	h.innerInit.Write(ipad[:])
	h.outerInit.Reset()
	h.outerInit.Write(opad[:])
	h.Reset()
}

// Reset rewinds to the keyed state (pads absorbed, no message bytes).
func (h *HMACState) Reset() {
	h.inner = h.innerInit
	h.outer = h.outerInit
}

// Write absorbs message bytes.
func (h *HMACState) Write(p []byte) (int, error) { return h.inner.Write(p) }

// SumInto finalizes the MAC into out without disturbing the running
// state and without allocating. Call Reset before the next message.
func (h *HMACState) SumInto(out *[Size]byte) {
	var innerSum [Size]byte
	h.inner.SumInto(&innerSum)
	outer := h.outer
	outer.Write(innerSum[:])
	outer.SumInto(out)
}
