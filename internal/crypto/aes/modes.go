package aes

import (
	"errors"
	"fmt"
)

// This file provides the block-cipher mode the issl record layer uses:
// in-place CBC, and PKCS#7-style padding.

// ErrPadding is returned when CBC padding fails to verify on decryption.
var ErrPadding = errors.New("aes: bad padding")

// Pad appends PKCS#7-style padding up to the cipher's block size.
// It always appends at least one byte.
func (c *Cipher) Pad(data []byte) []byte {
	bs := c.BlockSize()
	n := bs - len(data)%bs
	out := make([]byte, len(data)+n)
	copy(out, data)
	for i := len(data); i < len(out); i++ {
		out[i] = byte(n)
	}
	return out
}

// Unpad removes PKCS#7-style padding, verifying every pad byte.
func (c *Cipher) Unpad(data []byte) ([]byte, error) {
	bs := c.BlockSize()
	if len(data) == 0 || len(data)%bs != 0 {
		return nil, ErrPadding
	}
	n := int(data[len(data)-1])
	if n == 0 || n > bs || n > len(data) {
		return nil, ErrPadding
	}
	for _, b := range data[len(data)-n:] {
		if int(b) != n {
			return nil, ErrPadding
		}
	}
	return data[:len(data)-n], nil
}

// EncryptCBCInPlace encrypts buf (a whole number of blocks) in place
// under the given IV, allocating nothing. This is the record-layer
// fast path: for 16-byte blocks the chaining value stays in a register
// (encryptCBCNI, or encryptCBC4 on the T-table path); the 24- and
// 32-byte Rijndael blocks chain byte by byte.
func (c *Cipher) EncryptCBCInPlace(iv, buf []byte) error {
	bs := c.BlockSize()
	if len(iv) != bs {
		return fmt.Errorf("aes: IV must be %d bytes, got %d", bs, len(iv))
	}
	if len(buf)%bs != 0 {
		return fmt.Errorf("aes: CBC plaintext length %d not a multiple of %d", len(buf), bs)
	}
	switch {
	case c.ek != nil:
		encryptCBCNI(c.nr, &c.ek[0], &iv[0], buf)
		return nil
	case c.nb == 4:
		c.encryptCBC4(iv, buf)
		return nil
	}
	prev := iv
	for off := 0; off < len(buf); off += bs {
		blk := buf[off : off+bs]
		for i := 0; i < bs; i++ {
			blk[i] ^= prev[i]
		}
		c.encryptGeneric(blk, blk)
		prev = blk
	}
	return nil
}

// DecryptCBCInPlace reverses EncryptCBCInPlace, decrypting buf in
// place. For 16-byte blocks decryptCBCNI runs eight blocks at a time
// (decryptCBC4 carries the chain in four words on the T-table path);
// the bigger blocks keep it in stack scratch.
func (c *Cipher) DecryptCBCInPlace(iv, buf []byte) error {
	bs := c.BlockSize()
	if len(iv) != bs {
		return fmt.Errorf("aes: IV must be %d bytes, got %d", bs, len(iv))
	}
	if len(buf)%bs != 0 {
		return fmt.Errorf("aes: CBC ciphertext length %d not a multiple of %d", len(buf), bs)
	}
	switch {
	case c.dk != nil:
		decryptCBCNI(c.nr, &c.dk[0], &iv[0], buf)
		return nil
	case c.nb == 4:
		c.decryptCBC4(iv, buf)
		return nil
	}
	var prev, cur [32]byte // block is at most 32 bytes
	copy(prev[:bs], iv)
	for off := 0; off < len(buf); off += bs {
		blk := buf[off : off+bs]
		copy(cur[:bs], blk)
		c.decryptGeneric(blk, blk)
		for i := 0; i < bs; i++ {
			blk[i] ^= prev[i]
		}
		prev = cur
	}
	return nil
}
