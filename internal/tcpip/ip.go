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

// ipPacket is a parsed IPv4 packet.
type ipPacket struct {
	src, dst Addr
	proto    byte
	ttl      byte
	payload  []byte
}

var errBadIPHeader = errors.New("tcpip: bad IP header")

// marshalIP builds an IPv4 header + payload.
func marshalIP(p ipPacket) []byte {
	buf := make([]byte, ipHeaderLen+len(p.payload))
	buf[0] = 0x45 // version 4, IHL 5
	total := len(buf)
	put16(buf[2:], uint16(total))
	buf[8] = p.ttl
	buf[9] = p.proto
	copy(buf[12:16], p.src[:])
	copy(buf[16:20], p.dst[:])
	put16(buf[10:], 0)
	cs := checksum(buf[:ipHeaderLen])
	put16(buf[10:], cs)
	copy(buf[ipHeaderLen:], p.payload)
	return buf
}
