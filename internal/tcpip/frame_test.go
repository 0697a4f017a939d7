package tcpip

// The frame views (frame.go) must be indistinguishable from the struct
// decoders they replaced: ParseIPv4Frame accepts exactly what parseIP
// accepts and reads identical fields, likewise ParseTCPFrame against
// parseTCP. The decoders stay as test-only oracles (oracle_test.go) —
// the same pattern the crypto kernel rewrites used — and these tests
// diff the two over seeded storm-style frames and fuzz input.

import (
	"bytes"
	"testing"

	"repro/internal/crypto/prng"
)

// stormFrame builds one adversarial IPv4-ish buffer in the styles the
// conformance ingress sweep throws at a live stack: well-formed
// packets from the stack's own marshalers, bit-flipped variants, TCP
// header soup with random data offsets, and raw garbage.
func stormFrame(rng *prng.Xorshift, i int) []byte {
	src := Addr{10, 0, 0, byte(1 + rng.Intn(250))}
	dst := Addr{10, 0, 0, byte(1 + rng.Intn(250))}
	switch i % 5 {
	case 0: // well-formed TCP-in-IP from the oracle marshalers
		payload := make([]byte, rng.Intn(64))
		for j := range payload {
			payload[j] = byte(rng.Intn(256))
		}
		return marshalIP(ipPacket{src: src, dst: dst, proto: ProtoTCP, ttl: 64,
			payload: marshalTCP(src, dst, tcpSegment{
				srcPort: uint16(rng.Intn(1 << 16)), dstPort: uint16(rng.Intn(1 << 16)),
				seq: rng.Uint32(), ack: rng.Uint32(),
				flags: byte(rng.Intn(32)), window: uint16(rng.Intn(1 << 16)),
				payload: payload,
			})})
	case 1: // well-formed, then bit-flipped
		b := marshalIP(ipPacket{src: src, dst: dst, proto: byte(rng.Intn(256)), ttl: byte(rng.Intn(256)),
			payload: make([]byte, rng.Intn(40))})
		for k := 0; k < 1+rng.Intn(3); k++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		return b
	case 2: // TCP header soup: random bytes, plausible data offset
		seg := make([]byte, 20+rng.Intn(24))
		for j := range seg {
			seg[j] = byte(rng.Intn(256))
		}
		seg[12] = byte(5+rng.Intn(11)) << 4
		return seg
	case 3: // truncations of a valid packet
		b := marshalIP(ipPacket{src: src, dst: dst, proto: ProtoUDP, ttl: 1,
			payload: make([]byte, 8+rng.Intn(32))})
		return b[:rng.Intn(len(b)+1)]
	default: // raw garbage
		b := make([]byte, rng.Intn(120))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		return b
	}
}

// diffIPv4Views fails unless ParseIPv4Frame and parseIP agree on b:
// same accept/reject verdict and, on accept, identical fields.
func diffIPv4Views(t *testing.T, b []byte) {
	t.Helper()
	f, verr := ParseIPv4Frame(b)
	p, oerr := parseIP(b)
	if (verr == nil) != (oerr == nil) {
		t.Fatalf("IPv4 accept disagreement on %x: view err %v, oracle err %v", b, verr, oerr)
	}
	if verr != nil {
		return
	}
	if f.Src() != p.src || f.Dst() != p.dst || f.Proto() != p.proto || f.b[8] != p.ttl {
		t.Fatalf("IPv4 field disagreement on %x: view (%v %v %d %d), oracle (%v %v %d %d)",
			b, f.Src(), f.Dst(), f.Proto(), f.b[8], p.src, p.dst, p.proto, p.ttl)
	}
	if !bytes.Equal(f.Payload(), p.payload) {
		t.Fatalf("IPv4 payload disagreement on %x: view %x, oracle %x", b, f.Payload(), p.payload)
	}
}

// diffTCPViews is diffIPv4Views for the TCP layer.
func diffTCPViews(t *testing.T, b []byte) {
	t.Helper()
	f, verr := ParseTCPFrame(b)
	seg, ok := parseTCP(b)
	if (verr == nil) != ok {
		t.Fatalf("TCP accept disagreement on %x: view err %v, oracle ok %v", b, verr, ok)
	}
	if verr != nil {
		return
	}
	got := f.segment()
	if got.srcPort != seg.srcPort || got.dstPort != seg.dstPort ||
		got.seq != seg.seq || got.ack != seg.ack ||
		got.flags != seg.flags || got.window != seg.window {
		t.Fatalf("TCP field disagreement on %x: view %+v, oracle %+v", b, got, seg)
	}
	if !bytes.Equal(got.payload, seg.payload) {
		t.Fatalf("TCP payload disagreement on %x: view %x, oracle %x", b, got.payload, seg.payload)
	}
}

// TestFrameViewMatchesOracle diffs the views against the decode
// oracles over seeded storm frames — the receive-side mirror of
// TestAppendTCPIPMatchesMarshal.
func TestFrameViewMatchesOracle(t *testing.T) {
	rng := prng.NewXorshift(0xF7A3E)
	for i := 0; i < 4000; i++ {
		b := stormFrame(rng, i)
		diffIPv4Views(t, b)
		diffTCPViews(t, b)
		// And the nesting the receive path actually does: IP accept,
		// then TCP views over the IP payload.
		if f, err := ParseIPv4Frame(b); err == nil {
			diffTCPViews(t, f.Payload())
		}
	}
}

// TestFrameViewBounds pins the validation edges the views share with
// the oracles: short input, bad version, bad IHL, bad checksum, bad
// total length, and TCP offsets off both ends.
func TestFrameViewBounds(t *testing.T) {
	src, dst := Addr{10, 0, 0, 1}, Addr{10, 0, 0, 2}
	good := marshalIP(ipPacket{src: src, dst: dst, proto: ProtoTCP, ttl: 64,
		payload: marshalTCP(src, dst, tcpSegment{srcPort: 1, dstPort: 2, flags: flagSYN})})
	if _, err := ParseIPv4Frame(good); err != nil {
		t.Fatalf("valid packet rejected: %v", err)
	}
	mutate := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"short":        good[:19],
		"bad version":  mutate(func(b []byte) { b[0] = 0x55 }),
		"bad IHL":      mutate(func(b []byte) { b[0] = 0x42 }),
		"bad checksum": mutate(func(b []byte) { b[10] ^= 0xff }),
		"bad total":    mutate(func(b []byte) { b[2], b[3] = 0xff, 0xff }),
	}
	for name, b := range cases {
		if _, err := ParseIPv4Frame(b); err == nil {
			t.Errorf("IPv4 %s accepted by view", name)
		}
		if _, err := parseIP(b); err == nil {
			t.Errorf("IPv4 %s accepted by oracle", name)
		}
	}
	tcp := marshalTCP(src, dst, tcpSegment{srcPort: 1, dstPort: 2, flags: flagACK, payload: []byte("x")})
	short := tcp[:19]
	offPastEnd := append([]byte(nil), tcp...)
	offPastEnd[12] = 0xf0 // 60-byte offset on a 21-byte segment
	offTooSmall := append([]byte(nil), tcp...)
	offTooSmall[12] = 0x40 // 16-byte offset, below the minimum header
	for name, b := range map[string][]byte{
		"short": short, "offset past end": offPastEnd, "offset too small": offTooSmall,
	} {
		if _, err := ParseTCPFrame(b); err == nil {
			t.Errorf("TCP %s accepted by view", name)
		}
		if _, ok := parseTCP(b); ok {
			t.Errorf("TCP %s accepted by oracle", name)
		}
	}
}

// FuzzFrameView: accessor views never panic on arbitrary bytes, and
// agree with the decode oracles field-for-field whenever the oracle
// accepts. Seeds come from the storm-frame generator plus the edge
// cases FuzzTCPSegment pinned.
func FuzzFrameView(f *testing.F) {
	rng := prng.NewXorshift(0x5EED5)
	for i := 0; i < 10; i++ {
		f.Add(stormFrame(rng, i))
	}
	f.Add([]byte{0, 80, 0, 80, 0, 0, 0, 1, 0, 0, 0, 0, 0xf0, 0x02, 1, 0, 0, 0, 0, 0}) // offset past end
	f.Add(make([]byte, 19))                                                           // one short of a header
	f.Fuzz(func(t *testing.T, data []byte) {
		diffIPv4Views(t, data)
		diffTCPViews(t, data)
		if fr, err := ParseIPv4Frame(data); err == nil {
			if len(fr.Payload()) > len(data) {
				t.Fatalf("IPv4 payload view (%d) larger than input (%d)", len(fr.Payload()), len(data))
			}
			diffTCPViews(t, fr.Payload())
		}
		if fr, err := ParseTCPFrame(data); err == nil {
			if len(fr.Payload()) > len(data) {
				t.Fatalf("TCP payload view (%d) larger than input (%d)", len(fr.Payload()), len(data))
			}
			if fr.Flags()&^0x1f != 0 {
				t.Fatalf("view leaked reserved flag bits: %#x", fr.Flags())
			}
		}
	})
}
