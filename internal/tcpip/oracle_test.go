package tcpip

// Struct decoders kept as the reference the frame views are checked
// against: frame_test.go diffs ParseIPv4Frame/ParseTCPFrame against
// them field-for-field, and FuzzFrameView keeps the two in agreement
// over random input. Production ingress uses the views only. Likewise
// marshalTCP is the independent encoder appendTCPIP is checked against
// (TestAppendTCPIPMatchesMarshal, FuzzTCPSegment); production egress
// uses appendTCPIP only.

import "fmt"

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
	if checksum(b[:ihl]) != 0 {
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
	put16(b[16:], pseudoChecksum(ProtoTCP, src, dst, b))
	return b
}
