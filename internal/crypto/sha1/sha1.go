// Package sha1 implements the SHA-1 hash and HMAC-SHA1 from scratch
// (crypto/sha1 is deliberately not imported). SSL-era libraries like
// issl used MD5/SHA-1 for key derivation and record authentication;
// this package supplies both needs for the simulated library.
//
// SHA-1 is obsolete for collision resistance today; it is used here
// solely to reproduce a 2003-era protocol stack.
//
// The compression function is unrolled into the four 20-round stages
// (constant f/k per stage) and the streaming paths allocate nothing,
// so the issl record layer can MAC every record without garbage. The
// package tests diff it against crypto/sha1.
package sha1

// Size is the digest length in bytes.
const Size = 20

// BlockSize is the compression-function block length in bytes.
const BlockSize = 64

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
	for len(p) >= BlockSize {
		d.compress(p[:BlockSize])
		p = p[BlockSize:]
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
		out[4*i] = byte(w >> 24)
		out[4*i+1] = byte(w >> 16)
		out[4*i+2] = byte(w >> 8)
		out[4*i+3] = byte(w)
	}
}

func rotl32(x uint32, n uint) uint32 { return x<<n | x>>(32-n) }

// compress is the unrolled SHA-1 compression function: the message
// schedule feeds a 16-word ring and the 80 rounds run as four straight
// 20-round stages so f and k are loop constants.
func (d *Digest) compress(block []byte) {
	var w [16]uint32
	for i := 0; i < 16; i++ {
		w[i] = uint32(block[4*i])<<24 | uint32(block[4*i+1])<<16 |
			uint32(block[4*i+2])<<8 | uint32(block[4*i+3])
	}
	a, b, c, dd, e := d.h[0], d.h[1], d.h[2], d.h[3], d.h[4]
	i := 0
	for ; i < 16; i++ {
		tmp := rotl32(a, 5) + (b&c | ^b&dd) + e + 0x5a827999 + w[i&15]
		e, dd, c, b, a = dd, c, rotl32(b, 30), a, tmp
	}
	for ; i < 20; i++ {
		wi := rotl32(w[(i+13)&15]^w[(i+8)&15]^w[(i+2)&15]^w[i&15], 1)
		w[i&15] = wi
		tmp := rotl32(a, 5) + (b&c | ^b&dd) + e + 0x5a827999 + wi
		e, dd, c, b, a = dd, c, rotl32(b, 30), a, tmp
	}
	for ; i < 40; i++ {
		wi := rotl32(w[(i+13)&15]^w[(i+8)&15]^w[(i+2)&15]^w[i&15], 1)
		w[i&15] = wi
		tmp := rotl32(a, 5) + (b ^ c ^ dd) + e + 0x6ed9eba1 + wi
		e, dd, c, b, a = dd, c, rotl32(b, 30), a, tmp
	}
	for ; i < 60; i++ {
		wi := rotl32(w[(i+13)&15]^w[(i+8)&15]^w[(i+2)&15]^w[i&15], 1)
		w[i&15] = wi
		tmp := rotl32(a, 5) + (b&c | b&dd | c&dd) + e + 0x8f1bbcdc + wi
		e, dd, c, b, a = dd, c, rotl32(b, 30), a, tmp
	}
	for ; i < 80; i++ {
		wi := rotl32(w[(i+13)&15]^w[(i+8)&15]^w[(i+2)&15]^w[i&15], 1)
		w[i&15] = wi
		tmp := rotl32(a, 5) + (b ^ c ^ dd) + e + 0xca62c1d6 + wi
		e, dd, c, b, a = dd, c, rotl32(b, 30), a, tmp
	}
	d.h[0] += a
	d.h[1] += b
	d.h[2] += c
	d.h[3] += dd
	d.h[4] += e
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

// NewHMAC returns an HMACState keyed with key.
func NewHMAC(key []byte) *HMACState {
	h := &HMACState{}
	h.Init(key)
	return h
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
