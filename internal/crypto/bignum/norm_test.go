package bignum

import (
	"bytes"
	"testing"
)

// TestFromBytesNormalization covers the FromBytes corners: empty
// input, all-zero input, leading zero bytes (which land in the top
// limb and must be stripped), and the limb-boundary widths.
func TestFromBytesNormalization(t *testing.T) {
	if x := FromBytes(nil); !x.IsZero() || len(x.limbs) != 0 {
		t.Fatalf("FromBytes(nil): limbs=%v", x.limbs)
	}
	if x := FromBytes(make([]byte, 17)); !x.IsZero() || len(x.limbs) != 0 {
		t.Fatalf("FromBytes(zeros): limbs=%v", x.limbs)
	}

	// Leading zeros spanning whole limbs: 16 zero bytes then one set
	// byte gives trailing zero limbs pre-norm.
	b := make([]byte, 17)
	b[16] = 0x2a
	x := FromBytes(b)
	if x.Cmp(FromUint64(0x2a)) != 0 || len(x.limbs) != 1 {
		t.Fatalf("leading-zero bytes: %s limbs=%v", x.String(), x.limbs)
	}

	// Exactly one limb of bytes, then one byte over the boundary.
	one := bytes.Repeat([]byte{0xab}, 8)
	if x := FromBytes(one); len(x.limbs) != 1 || !bytes.Equal(x.Bytes(), one) {
		t.Fatalf("8-byte round trip: limbs=%d bytes=%x", len(x.limbs), x.Bytes())
	}
	over := append([]byte{0x01}, one...)
	if x := FromBytes(over); len(x.limbs) != 2 || !bytes.Equal(x.Bytes(), over) {
		t.Fatalf("9-byte round trip: limbs=%d bytes=%x", len(x.limbs), x.Bytes())
	}

	// A value whose top byte is zero after stripping must not be
	// confused with the padded form under Cmp.
	small := FromBytes([]byte{0x00, 0x00, 0x01})
	if small.Cmp(FromUint64(1)) != 0 || small.BitLen() != 1 {
		t.Fatalf("padded small value: %s bitlen=%d", small.String(), small.BitLen())
	}
}
