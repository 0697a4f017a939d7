package tcpip

// Oracles the production code is checked against. checksumRef is the
// textbook RFC 1071 loop over byte pairs, and pseudoChecksumRef puts
// the pseudo-header in front of the segment in one buffer and sums
// that; TestChecksumMatchesOracle and FuzzChecksum diff the 64-bit-word
// checksum against them, and the oracle encoder and decoder below use
// them. Struct decoders are kept as the reference the frame views are
// checked against: frame_test.go diffs ParseIPv4Frame/ParseTCPFrame against
// them field-for-field, and FuzzFrameView keeps the two in agreement
// over random input. Production ingress uses the views only. Likewise
// marshalIP and marshalTCP are the independent encoders appendTCPIP
// and putIPHeader are checked against (TestAppendTCPIPMatchesMarshal,
// FuzzTCPSegment); production egress uses those two only.

import "fmt"

// checksumRef computes the RFC 1071 ones'-complement sum over data one
// big-endian byte pair at a time.
func checksumRef(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoChecksumRef builds the IPv4 pseudo-header + segment in one
// buffer and checksums it with checksumRef.
func pseudoChecksumRef(proto byte, src, dst Addr, seg []byte) uint16 {
	ph := make([]byte, 12+len(seg))
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[9] = proto
	ph[10] = byte(len(seg) >> 8)
	ph[11] = byte(len(seg))
	copy(ph[12:], seg)
	return checksumRef(ph)
}

// ipPacket is a parsed IPv4 packet.
type ipPacket struct {
	src, dst Addr
	proto    byte
	ttl      byte
	payload  []byte
}

// marshalIP builds an IPv4 header + payload in a fresh buffer.
func marshalIP(p ipPacket) []byte {
	buf := make([]byte, ipHeaderLen+len(p.payload))
	buf[0] = 0x45 // version 4, IHL 5
	put16(buf[2:], uint16(len(buf)))
	buf[8] = p.ttl
	buf[9] = p.proto
	copy(buf[12:16], p.src[:])
	copy(buf[16:20], p.dst[:])
	put16(buf[10:], checksumRef(buf[:ipHeaderLen]))
	copy(buf[ipHeaderLen:], p.payload)
	return buf
}

// parseIP validates and splits an IPv4 packet.
func parseIP(b []byte) (ipPacket, error) {
	if len(b) < ipHeaderLen {
		return ipPacket{}, fmt.Errorf("%w: %d bytes", errBadIPHeader, len(b))
	}
	if b[0]>>4 != 4 {
		return ipPacket{}, fmt.Errorf("%w: version %d", errBadIPHeader, b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < ipHeaderLen || len(b) < ihl {
		return ipPacket{}, fmt.Errorf("%w: IHL %d", errBadIPHeader, ihl)
	}
	if checksumRef(b[:ihl]) != 0 {
		return ipPacket{}, fmt.Errorf("%w: checksum", errBadIPHeader)
	}
	total := int(be16(b[2:]))
	if total < ihl || total > len(b) {
		return ipPacket{}, fmt.Errorf("%w: total length %d", errBadIPHeader, total)
	}
	var p ipPacket
	copy(p.src[:], b[12:16])
	copy(p.dst[:], b[16:20])
	p.proto = b[9]
	p.ttl = b[8]
	p.payload = b[ihl:total]
	return p, nil
}

func parseTCP(b []byte) (tcpSegment, bool) {
	if len(b) < tcpHeaderLen {
		return tcpSegment{}, false
	}
	off := int(b[12]>>4) * 4
	if off < tcpHeaderLen || off > len(b) {
		return tcpSegment{}, false
	}
	return tcpSegment{
		srcPort: be16(b[0:]), dstPort: be16(b[2:]),
		seq: be32(b[4:]), ack: be32(b[8:]),
		flags: b[13] & 0x1f, window: be16(b[14:]),
		payload: b[off:],
	}, true
}

func marshalTCP(src, dst Addr, seg tcpSegment) []byte {
	b := make([]byte, tcpHeaderLen+len(seg.payload))
	put16(b[0:], seg.srcPort)
	put16(b[2:], seg.dstPort)
	put32(b[4:], seg.seq)
	put32(b[8:], seg.ack)
	b[12] = 5 << 4 // data offset: 5 words
	b[13] = seg.flags
	put16(b[14:], seg.window)
	copy(b[tcpHeaderLen:], seg.payload)
	put16(b[16:], pseudoChecksumRef(ProtoTCP, src, dst, b))
	return b
}
