package tcpip

// Native fuzz targets for the wire parsers. Under plain `go test`
// these run seed-only as a regression; CI adds a short -fuzz smoke.
// Invariants: parseTCP/parseIP never panic, never return views past
// the input, and survive a marshal→parse round-trip with fields
// intact.

import (
	"bytes"
	"testing"
)

var (
	fuzzSrc = Addr{10, 0, 0, 1}
	fuzzDst = Addr{10, 0, 0, 2}
)

func FuzzTCPSegment(f *testing.F) {
	f.Add(marshalTCP(fuzzSrc, fuzzDst, tcpSegment{
		srcPort: 1234, dstPort: 80, seq: 1, flags: flagSYN, window: 512,
	}))
	f.Add(marshalTCP(fuzzSrc, fuzzDst, tcpSegment{
		srcPort: 9000, dstPort: 4000, seq: 7, ack: 3, flags: flagACK | flagPSH,
		window: 2048, payload: []byte("GET / HTTP/1.0\r\n"),
	}))
	f.Add([]byte{0, 80, 0, 80, 0, 0, 0, 1, 0, 0, 0, 0, 0xf0, 0x02, 1, 0, 0, 0, 0, 0}) // offset past end
	f.Add(make([]byte, 19))                                                           // one short of a header
	f.Add(marshalIP(ipPacket{src: fuzzSrc, dst: fuzzDst, proto: ProtoTCP, ttl: 64,
		payload: marshalTCP(fuzzSrc, fuzzDst, tcpSegment{srcPort: 1, dstPort: 2, flags: flagSYN})}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if seg, ok := parseTCP(data); ok {
			if seg.flags&^0x1f != 0 {
				t.Fatalf("parseTCP leaked reserved flag bits: %#x", seg.flags)
			}
			if len(seg.payload) > len(data) {
				t.Fatalf("payload view (%d) larger than input (%d)", len(seg.payload), len(data))
			}
			out := marshalTCP(fuzzSrc, fuzzDst, seg)
			seg2, ok2 := parseTCP(out)
			if !ok2 {
				t.Fatal("marshalTCP output does not re-parse")
			}
			if seg2.srcPort != seg.srcPort || seg2.dstPort != seg.dstPort ||
				seg2.seq != seg.seq || seg2.ack != seg.ack ||
				seg2.flags != seg.flags || seg2.window != seg.window ||
				!bytes.Equal(seg2.payload, seg.payload) {
				t.Fatalf("TCP round-trip changed fields: %+v -> %+v", seg, seg2)
			}
		}

		if p, err := parseIP(data); err == nil {
			if len(p.payload) > len(data) {
				t.Fatalf("IP payload view (%d) larger than input (%d)", len(p.payload), len(data))
			}
			p2, err := parseIP(marshalIP(p))
			if err != nil {
				t.Fatalf("marshalIP output does not re-parse: %v", err)
			}
			if p2.src != p.src || p2.dst != p.dst || p2.proto != p.proto ||
				p2.ttl != p.ttl || !bytes.Equal(p2.payload, p.payload) {
				t.Fatalf("IP round-trip changed fields: %+v -> %+v", p, p2)
			}
		}
	})
}

// FuzzChecksum: the 64-bit-word checksum and pseudo-header checksum
// agree with the byte-pair oracle on arbitrary data, addresses,
// protocol and sub-slice offset.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(ProtoTCP), uint32(0x0a000001), uint32(0x0a000002))
	f.Add([]byte{0xab}, uint8(1), uint8(ProtoUDP), uint32(0), uint32(0))
	f.Add(bytes.Repeat([]byte{0xff}, 37), uint8(3), uint8(0xff), uint32(0xffffffff), uint32(0xffffffff))
	f.Add(make([]byte, 64), uint8(7), uint8(ProtoTCP), uint32(0xc0a80001), uint32(0xc0a80002))

	f.Fuzz(func(t *testing.T, data []byte, off uint8, proto uint8, src, dst uint32) {
		data = data[min(int(off%8), len(data)):]
		data = data[:min(len(data), 0xffff)] // an IPv4 datagram's limit
		var s, d Addr
		put32(s[:], src)
		put32(d[:], dst)
		if got, want := checksum(data), checksumRef(data); got != want {
			t.Fatalf("checksum(len %d) = %#x, oracle %#x", len(data), got, want)
		}
		if got, want := pseudoChecksum(proto, s, d, data), pseudoChecksumRef(proto, s, d, data); got != want {
			t.Fatalf("pseudoChecksum(len %d) = %#x, oracle %#x", len(data), got, want)
		}
	})
}
