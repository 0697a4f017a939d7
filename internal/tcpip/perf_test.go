package tcpip

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/race"
)

// TestPseudoChecksumEquivalence diffs the seeded-accumulator
// pseudo-header sum against the buffer-materializing oracle, odd and
// even lengths.
func TestPseudoChecksumEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	src := Addr{192, 168, 1, 10}
	dst := Addr{192, 168, 1, 20}
	for i := 0; i < 5_000; i++ {
		seg := make([]byte, rng.Intn(1500))
		rng.Read(seg)
		got := pseudoChecksum(ProtoTCP, src, dst, seg)
		want := pseudoChecksumRef(ProtoTCP, src, dst, seg)
		if got != want {
			t.Fatalf("vector %d (len %d): %#x != %#x", i, len(seg), got, want)
		}
	}
}

// TestChecksumMatchesOracle diffs checksum and pseudoChecksum against
// the byte-pair oracle for every length 0-1500 at sub-slice offsets
// 0-7, so each length meets every alignment and every tail shape of
// the 64-bit-word loop.
func TestChecksumMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	buf := make([]byte, 1500+8)
	rng.Read(buf)
	src := Addr{172, 16, 254, 1}
	dst := Addr{10, 255, 0, 77}
	for off := 0; off < 8; off++ {
		for n := 0; n <= 1500; n++ {
			data := buf[off : off+n]
			if got, want := checksum(data), checksumRef(data); got != want {
				t.Fatalf("checksum off %d len %d: %#x, oracle %#x", off, n, got, want)
			}
			proto := []byte{ProtoTCP, ProtoUDP}[n%2]
			if got, want := pseudoChecksum(proto, src, dst, data), pseudoChecksumRef(proto, src, dst, data); got != want {
				t.Fatalf("pseudoChecksum off %d len %d: %#x, oracle %#x", off, n, got, want)
			}
		}
	}
}

// TestChecksumEdgeVectors covers the sums a wide accumulator can get
// wrong: all-zero data (sum 0, checksum 0xffff), all-0xff data (a sum
// of negative zeros, which must stay 0xffff and so checksum to 0, never
// to 0xffff), carries out of every 64-bit add, and odd lengths.
func TestChecksumEdgeVectors(t *testing.T) {
	ones := Addr{0xff, 0xff, 0xff, 0xff}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 1499, 1500, 65535} {
		for _, fill := range []byte{0x00, 0xff, 0x80, 0x01} {
			data := bytes.Repeat([]byte{fill}, n)
			if got, want := checksum(data), checksumRef(data); got != want {
				t.Errorf("checksum(%d x %#x) = %#x, oracle %#x", n, fill, got, want)
			}
			if got, want := pseudoChecksum(0xff, ones, ones, data), pseudoChecksumRef(0xff, ones, ones, data); got != want {
				t.Errorf("pseudoChecksum(%d x %#x, all-ones header) = %#x, oracle %#x", n, fill, got, want)
			}
		}
	}
	// Sums whose 64→16-bit fold carries at every step; the last one
	// reaches it through the 4- and 1-byte tails.
	for _, data := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x00, 0x01, 0x00, 0x00},
		{0xff, 0xff, 0x00, 0x00, 0x00, 0x01, 0xff, 0xff},
		{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00},
	} {
		if got, want := checksum(data), checksumRef(data); got != want {
			t.Errorf("checksum(% x) = %#x, oracle %#x", data, got, want)
		}
	}
	if got := checksum(make([]byte, 40)); got != 0xffff {
		t.Errorf("all-zero checksum = %#x, want 0xffff", got)
	}
	if got := checksum(bytes.Repeat([]byte{0xff}, 40)); got != 0 {
		t.Errorf("all-0xff checksum = %#x, want 0 (negative zero folds to 0xffff)", got)
	}
}

// TestAppendTCPIPMatchesMarshal diffs the single-pass segment marshal
// against the seed kernel's marshalTCP-then-marshalIP pair over seeded
// vectors, including scratch reuse across differently-sized payloads
// (stale bytes must never leak).
func TestAppendTCPIPMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	src := Addr{10, 0, 0, 1}
	dst := Addr{10, 0, 0, 2}
	var scratch []byte
	for i := 0; i < 2_000; i++ {
		seg := tcpSegment{
			srcPort: uint16(rng.Uint32()),
			dstPort: uint16(rng.Uint32()),
			seq:     rng.Uint32(),
			ack:     rng.Uint32(),
			flags:   uint8(rng.Intn(32)),
			window:  uint16(rng.Uint32()),
			payload: make([]byte, rng.Intn(tcpMSS)),
		}
		rng.Read(seg.payload)
		want := marshalIP(ipPacket{src: src, dst: dst, proto: ProtoTCP, ttl: 64,
			payload: marshalTCP(src, dst, seg)})
		scratch = appendTCPIP(scratch, src, dst, seg)
		if !bytes.Equal(scratch, want) {
			t.Fatalf("vector %d (payload %d): fast marshal differs from seed pair", i, len(seg.payload))
		}
		// And it must still parse back to the same segment.
		p, err := parseIP(scratch)
		if err != nil {
			t.Fatalf("vector %d: parseIP: %v", i, err)
		}
		back, ok := parseTCP(p.payload)
		if !ok {
			t.Fatalf("vector %d: parseTCP failed", i)
		}
		if back.seq != seg.seq || back.ack != seg.ack || !bytes.Equal(back.payload, seg.payload) {
			t.Fatalf("vector %d: round trip mismatch", i)
		}
	}
}

// TestSegmentMarshalParseZeroAlloc pins the per-segment allocation
// contract: marshal into a warm scratch buffer and parse are both free.
func TestSegmentMarshalParseZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	src := Addr{10, 0, 0, 1}
	dst := Addr{10, 0, 0, 2}
	seg := tcpSegment{srcPort: 1234, dstPort: 80, seq: 7, ack: 9,
		flags: flagACK | flagPSH, window: 4096, payload: make([]byte, tcpMSS)}
	scratch := appendTCPIP(nil, src, dst, seg) // warm to full size
	if n := testing.AllocsPerRun(100, func() {
		scratch = appendTCPIP(scratch, src, dst, seg)
	}); n != 0 {
		t.Errorf("appendTCPIP allocates %v per segment, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		p, err := parseIP(scratch)
		if err != nil {
			panic(err)
		}
		if _, ok := parseTCP(p.payload); !ok {
			panic("parseTCP")
		}
	}); n != 0 {
		t.Errorf("parseIP+parseTCP allocates %v per segment, want 0", n)
	}
}

func BenchmarkSegmentMarshalFast(b *testing.B) {
	src := Addr{10, 0, 0, 1}
	dst := Addr{10, 0, 0, 2}
	seg := tcpSegment{srcPort: 1234, dstPort: 80, seq: 7, ack: 9,
		flags: flagACK, window: 4096, payload: make([]byte, tcpMSS)}
	var scratch []byte
	b.SetBytes(int64(ipHeaderLen + tcpHeaderLen + tcpMSS))
	for i := 0; i < b.N; i++ {
		scratch = appendTCPIP(scratch, src, dst, seg)
	}
}

func BenchmarkSegmentMarshalSeed(b *testing.B) {
	src := Addr{10, 0, 0, 1}
	dst := Addr{10, 0, 0, 2}
	seg := tcpSegment{srcPort: 1234, dstPort: 80, seq: 7, ack: 9,
		flags: flagACK, window: 4096, payload: make([]byte, tcpMSS)}
	b.SetBytes(int64(ipHeaderLen + tcpHeaderLen + tcpMSS))
	for i := 0; i < b.N; i++ {
		marshalIP(ipPacket{src: src, dst: dst, proto: ProtoTCP, ttl: 64,
			payload: marshalTCP(src, dst, seg)})
	}
}
