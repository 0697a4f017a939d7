// Frame views: validated accessor types over caller-owned packet
// buffers. Instead of decoding into structs (copying addresses and
// slicing payloads through an intermediate value), these types
// validate the header once and then read fields in place — the ingress
// path's half of the zero-copy story, mirroring appendTCPIP on egress.
// The struct decoders parseIP and parseTCP live in oracle_test.go as
// the reference: frame_test.go diffs the views against them
// field-for-field, and FuzzFrameView keeps the two in agreement over
// random input.
package tcpip

import "errors"

var errBadTCPHeader = errors.New("tcpip: bad TCP header")

// IPv4Frame is a validated view over an IPv4 packet. The zero value is
// not meaningful; obtain one from ParseIPv4Frame. The view borrows the
// input buffer: it is valid only while the caller's buffer is.
type IPv4Frame struct {
	b   []byte // full input, at least total bytes
	ihl int    // header length in bytes
	end int    // total length from the header
}

// ParseIPv4Frame validates an IPv4 packet and returns a view over it.
// Validation is exactly that of the reference decoder parseIP
// (oracle_test.go): minimum length, version, IHL bounds, header
// checksum, and total-length bounds. Nothing is copied.
func ParseIPv4Frame(b []byte) (IPv4Frame, error) {
	if len(b) < ipHeaderLen {
		return IPv4Frame{}, errBadIPHeader
	}
	if b[0]>>4 != 4 {
		return IPv4Frame{}, errBadIPHeader
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < ipHeaderLen || len(b) < ihl {
		return IPv4Frame{}, errBadIPHeader
	}
	if checksum(b[:ihl]) != 0 {
		return IPv4Frame{}, errBadIPHeader
	}
	total := int(be16(b[2:]))
	if total < ihl || total > len(b) {
		return IPv4Frame{}, errBadIPHeader
	}
	return IPv4Frame{b: b, ihl: ihl, end: total}, nil
}

// Src returns the source address.
func (f IPv4Frame) Src() Addr {
	var a Addr
	copy(a[:], f.b[12:16])
	return a
}

// Dst returns the destination address.
func (f IPv4Frame) Dst() Addr {
	var a Addr
	copy(a[:], f.b[16:20])
	return a
}

// Proto returns the IP protocol number.
func (f IPv4Frame) Proto() byte { return f.b[9] }

// Payload returns the packet body (after the header, bounded by the
// header's total length) as a view into the input buffer.
func (f IPv4Frame) Payload() []byte { return f.b[f.ihl:f.end] }

// TCPFrame is a validated view over a TCP segment. Obtain one from
// ParseTCPFrame; the view borrows the input buffer.
type TCPFrame struct {
	b   []byte
	off int // data offset in bytes
}

// ParseTCPFrame validates a TCP segment and returns a view over it.
// Validation is exactly that of the reference decoder parseTCP
// (oracle_test.go): minimum length and data-offset bounds. Nothing is
// copied.
func ParseTCPFrame(b []byte) (TCPFrame, error) {
	if len(b) < tcpHeaderLen {
		return TCPFrame{}, errBadTCPHeader
	}
	off := int(b[12]>>4) * 4
	if off < tcpHeaderLen || off > len(b) {
		return TCPFrame{}, errBadTCPHeader
	}
	return TCPFrame{b: b, off: off}, nil
}

// SrcPort returns the source port.
func (f TCPFrame) SrcPort() uint16 { return be16(f.b[0:]) }

// DstPort returns the destination port.
func (f TCPFrame) DstPort() uint16 { return be16(f.b[2:]) }

// Seq returns the sequence number.
func (f TCPFrame) Seq() uint32 { return be32(f.b[4:]) }

// Ack returns the acknowledgment number.
func (f TCPFrame) Ack() uint32 { return be32(f.b[8:]) }

// Flags returns the five RFC 793 flag bits (URG is not modeled).
func (f TCPFrame) Flags() uint8 { return f.b[13] & 0x1f }

// Window returns the advertised receive window.
func (f TCPFrame) Window() uint16 { return be16(f.b[14:]) }

// Payload returns the segment body after the data offset, as a view
// into the input buffer.
func (f TCPFrame) Payload() []byte { return f.b[f.off:] }

// segment builds the oracle-equivalent tcpSegment; its payload aliases
// the view's buffer. Used by the demux path and the oracle-diff tests.
func (f TCPFrame) segment() tcpSegment {
	return tcpSegment{
		srcPort: f.SrcPort(), dstPort: f.DstPort(),
		seq: f.Seq(), ack: f.Ack(),
		flags: f.Flags(), window: f.Window(),
		payload: f.Payload(),
	}
}
