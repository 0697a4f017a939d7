// Package tcpip is a from-scratch TCP/IP stack running over the
// netsim wire. Of what the RMC2000 development kit provided —
// "software implementing TCP/IP, UDP and ICMP" (§4) — it keeps the
// parts the paper's TCP-only service uses, IP, TCP and ICMP echo, which
// the Unix workstation on the other end of the case study's connection
// had natively. Its blocking Listen/Accept/Connect/Read/Write/Close
// follow the BSD call sequence, and the Dynamic-C-style API
// (internal/dcsock) sits on top of the same stack, which is the point
// of Fig. 2: the same transport, two very different programming
// interfaces.
//
// Every IP header and TCP segment is checksummed on the way out and
// verified on the way in, so the RFC 1071 checksum is the stack's one
// per-byte kernel. It sums the data as big-endian 64-bit words with
// end-around carry and folds to 16 bits once at the end; the TCP
// pseudo-header is seeded into the same accumulator.
package tcpip

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Addr is an IPv4 address.
type Addr [4]byte

// String renders dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IP4 builds an address from four octets.
func IP4(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// checksum computes the RFC 1071 Internet checksum over data.
func checksum(data []byte) uint16 { return fold(sum64(0, data)) }

// pseudoChecksum computes the TCP/UDP checksum including the IPv4
// pseudo-header. The pseudo-header words are seeded into the same
// accumulator rather than materialized in front of seg, so the
// per-segment cost is one pass over seg with no allocation or copy.
func pseudoChecksum(proto byte, src, dst Addr, seg []byte) uint16 {
	acc := uint64(binary.BigEndian.Uint32(src[:])) +
		uint64(binary.BigEndian.Uint32(dst[:])) +
		uint64(proto) + uint64(len(seg))
	return fold(sum64(acc, seg))
}

// sum64 adds data to acc as big-endian 64-bit words with end-around
// carry. Because 2^16 ≡ 1 modulo 0xffff, a ones'-complement sum of
// wide words folds to the same 16-bit sum as one taken pair by pair
// (RFC 1071 §2: byte-order independence and deferred carries); the
// 4-, 2- and 1-byte tail chunks all start at even offsets, and an odd
// last byte is the high half of a zero-padded pair.
func sum64(acc uint64, data []byte) uint64 {
	var c uint64
	for len(data) >= 32 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[0:8]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[8:16]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[16:24]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[24:32]), c)
		data = data[32:]
	}
	for len(data) >= 8 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data), c)
		data = data[8:]
	}
	if len(data) >= 4 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint32(data)), c)
		data = data[4:]
	}
	if len(data) >= 2 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint16(data)), c)
		data = data[2:]
	}
	if len(data) == 1 {
		acc, c = bits.Add64(acc, uint64(data[0])<<8, c)
	}
	// The last carry goes back in. acc + c cannot wrap: an add that
	// carries out leaves acc = 2^64-1 only if it also carried in with
	// acc = 2^64-1, and the chain starts with no carry.
	return acc + c
}

// fold reduces a 64-bit ones'-complement sum to 16 bits and returns
// its complement, the value that goes on the wire.
func fold(acc uint64) uint16 {
	s := acc>>32 + acc&0xffffffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	return ^uint16(s)
}

func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func put16(b []byte, v uint16) { b[0], b[1] = byte(v>>8), byte(v) }
func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
