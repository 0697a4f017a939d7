package tcpip

import "errors"

// IP protocol numbers carried in the header.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// MTU is the Ethernet payload limit; packets are never fragmented
// because the TCP MSS stays under it.
const MTU = 1500

const ipHeaderLen = 20

var errBadIPHeader = errors.New("tcpip: bad IP header")

// putIPHeader writes the IPv4 header of pkt, a whole packet whose
// payload already follows the header's 20 bytes: the total length is
// len(pkt), the TTL 64, no options and no fragmentation. Every header
// byte is written, so a reused buffer leaks no stale contents. It is
// the stack's only IP header writer; TCP segments (appendTCPIP) and
// ICMP echoes both go through it.
func putIPHeader(pkt []byte, proto byte, src, dst Addr) {
	ip := pkt[:ipHeaderLen]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	put16(ip[2:], uint16(len(pkt)))
	put16(ip[4:], 0) // identification
	put16(ip[6:], 0) // flags / fragment offset
	ip[8] = 64       // TTL
	ip[9] = proto
	put16(ip[10:], 0)
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])
	put16(ip[10:], checksum(ip))
}
