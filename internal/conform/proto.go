package conform

// Protocol-layer sweeps: seeded adversarial inputs against the issl
// handshake, the tcpip ingress path and the dcc compiler front end.
// The invariants are behavioral — never panic, reject garbage with an
// error, keep serving after abuse, round-trip application data intact.
// The in-package native fuzz targets (internal/issl, internal/tcpip,
// internal/dcc) mutate far deeper; these sweeps make the conformance
// verdict self-contained and reproducible from one seed.

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/dcc"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/tcpip"
)

// --- issl --------------------------------------------------------------------

// duplex glues two pipe halves into one io.ReadWriter endpoint.
type duplex struct {
	r io.Reader
	w io.Writer
}

func (d duplex) Read(p []byte) (int, error)  { return d.r.Read(p) }
func (d duplex) Write(p []byte) (int, error) { return d.w.Write(p) }

// recorder tees every Write into a buffer.
type recorder struct {
	io.ReadWriter
	captured []byte
}

func (r *recorder) Write(p []byte) (int, error) {
	r.captured = append(r.captured, p...)
	return r.ReadWriter.Write(p)
}

// byteFeed serves a fixed byte string then EOF; writes are discarded.
// It models a peer that sends attacker-controlled bytes and hangs up.
type byteFeed struct{ buf []byte }

func (b *byteFeed) Read(p []byte) (int, error) {
	if len(b.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.buf)
	b.buf = b.buf[n:]
	return n, nil
}

func (b *byteFeed) Write(p []byte) (int, error) { return len(p), nil }

func embeddedConfig(seed uint64) issl.Config {
	return issl.Config{
		Profile: issl.ProfileEmbedded,
		PSK:     []byte("conform-sweep-psk-0123456789abcd"),
		Rand:    prng.NewXorshift(seed),
	}
}

// checkISSLHandshakeSweep captures a genuine client→server handshake
// transcript, then replays mutated copies (bit flips, truncations,
// garbage records) into BindServer. Invariants: the server never
// panics, rejects every corrupted transcript with an error, and — on
// the clean path — application data round-trips byte-exactly.
func checkISSLHandshakeSweep(c *checkCtx) {
	transcript, err := captureHandshake(c, 64)
	if err != nil {
		c.err = fmt.Errorf("clean handshake capture: %w", err)
		return
	}

	for i := 0; c.vectors < c.budget; i++ {
		var input []byte
		switch i % 4 {
		case 0: // bit-flip a few distinct bytes of the real transcript
			input = append([]byte{}, transcript...)
			seen := map[int]bool{}
			for k := 0; k < 1+c.rng.Intn(4); k++ {
				pos := c.rng.Intn(len(input))
				if seen[pos] {
					continue // two flips in one byte could cancel out
				}
				seen[pos] = true
				input[pos] ^= byte(1 << c.rng.Intn(8))
			}
		case 1: // truncate mid-record
			input = append([]byte{}, transcript[:c.rng.Intn(len(transcript))]...)
		case 2: // plausible record header, random body
			body := randBytes(c.rng, c.rng.Intn(64))
			input = append([]byte{0x16, 0x31, byte(len(body) >> 8), byte(len(body))}, body...)
		default: // unstructured garbage
			input = randBytes(c.rng, c.rng.Intn(200))
		}
		c.vector()
		func() {
			defer func() {
				if r := recover(); r != nil {
					c.failf("BindServer panic on input %x: %v", input, r)
				}
			}()
			if conn, err := issl.BindServer(&byteFeed{buf: input}, embeddedConfig(c.rng.Uint64()|1)); err == nil {
				// A corrupted or truncated transcript that still completes
				// the handshake means the Finished MAC is not binding.
				c.failf("handshake accepted corrupted transcript (%d bytes), conn=%v", len(input), conn != nil)
			}
		}()

		// Every 64th vector: a clean handshake plus a data round-trip,
		// so the sweep also certifies the success path it mutates from.
		if i%64 == 0 {
			payload := randBytes(c.rng, 1+c.rng.Intn(300))
			echoed, err := cleanRoundTrip(c, payload)
			c.vector()
			if err != nil {
				c.failf("clean round-trip: %v", err)
			} else if !bytesEqual(echoed, payload) {
				c.failf("round-trip corrupted %dB payload", len(payload))
			}
		}
	}
}

// captureHandshake runs one genuine embedded-profile handshake over
// in-memory pipes and returns the raw client→server byte stream.
func captureHandshake(c *checkCtx, _ int) ([]byte, error) {
	cliSeed, srvSeed := c.rng.Uint64()|1, c.rng.Uint64()|1
	c2s, s2c := newBufPipe(), newBufPipe() // client→server, server→client
	rec := &recorder{ReadWriter: duplex{r: s2c, w: c2s}}

	srvErr := make(chan error, 1)
	go func() {
		conn, err := issl.BindServer(duplex{r: c2s, w: s2c}, embeddedConfig(srvSeed))
		if err == nil {
			conn.Close()
		}
		srvErr <- err
	}()
	conn, err := issl.BindClient(rec, embeddedConfig(cliSeed))
	if err != nil {
		return nil, err
	}
	conn.Close()
	if err := <-srvErr; err != nil {
		return nil, err
	}
	return rec.captured, nil
}

// cleanRoundTrip handshakes and echoes one payload server→client.
func cleanRoundTrip(c *checkCtx, payload []byte) ([]byte, error) {
	cliSeed, srvSeed := c.rng.Uint64()|1, c.rng.Uint64()|1
	c2s, s2c := newBufPipe(), newBufPipe()

	done := make(chan error, 1)
	go func() {
		conn, err := issl.BindServer(duplex{r: c2s, w: s2c}, embeddedConfig(srvSeed))
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, len(payload))
		if _, err := io.ReadFull(conn, buf); err != nil {
			done <- err
			return
		}
		_, err = conn.Write(buf)
		done <- err
	}()
	conn, err := issl.BindClient(duplex{r: s2c, w: c2s}, embeddedConfig(cliSeed))
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(payload); err != nil {
		return nil, err
	}
	echoed := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, echoed); err != nil {
		return nil, err
	}
	if err := <-done; err != nil {
		return nil, err
	}
	return echoed, nil
}

// bufPipe is an unbounded in-memory byte pipe: writes never block, so
// both handshake endpoints can flush close records without the
// lock-step deadlock a synchronous io.Pipe would produce.
type bufPipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newBufPipe() *bufPipe {
	p := &bufPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *bufPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, io.ErrClosedPipe
	}
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *bufPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

func (p *bufPipe) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.cond.Broadcast()
	return nil
}

// --- tcpip -------------------------------------------------------------------

// checkTCPIPIngressSweep stands up two live stacks on a simulated hub,
// then injects adversarial IPv4 frames — mutated ICMP echoes, random
// TCP headers, raw garbage — from a third rogue port. The frames are
// built by an oracle-side encoder written from the RFC header layouts,
// not by the stack's own marshalers. Invariant: the stack drops or
// survives everything, and still answers a real ping afterwards.
func checkTCPIPIngressSweep(c *checkCtx) {
	hub := netsim.NewHub()
	defer hub.Close()
	a, err := tcpip.NewStack(hub, tcpip.Addr{10, 0, 0, 1})
	if err != nil {
		c.err = err
		return
	}
	defer a.Close()
	b, err := tcpip.NewStack(hub, tcpip.Addr{10, 0, 0, 2})
	if err != nil {
		c.err = err
		return
	}
	defer b.Close()
	if _, err := b.Listen(4000, 4); err != nil {
		c.err = err
		return
	}
	rogue, err := hub.Attach(netsim.MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01})
	if err != nil {
		c.err = err
		return
	}
	defer rogue.Close()
	drainPort(rogue)

	// Baseline: the clean wire works before we abuse it.
	c.vector()
	if err := a.Ping(b.Addr(), time.Second); err != nil {
		c.failf("baseline ping: %v", err)
		return
	}

	src := tcpip.Addr{10, 0, 0, 66}
	for i := 0; c.vectors < c.budget-1; i++ {
		var payload []byte
		switch i % 4 {
		case 0: // well-formed ICMP echo, then corrupted
			payload = encodeIPv4(src, b.Addr(), 1, encodeICMPEcho(c.rng))
			flipBytes(c.rng, payload, 1+c.rng.Intn(3))
		case 1: // TCP header soup at the listening port
			payload = encodeIPv4(src, b.Addr(), 6, encodeTCPGarbage(c.rng, 4000))
		case 2: // header fields randomized (version, IHL, lengths)
			payload = encodeIPv4(src, b.Addr(), byte(c.rng.Intn(256)), randBytes(c.rng, c.rng.Intn(40)))
			for k := 0; k < 3; k++ {
				payload[c.rng.Intn(minInt(len(payload), 20))] = byte(c.rng.Intn(256))
			}
		default: // raw garbage frame
			payload = randBytes(c.rng, c.rng.Intn(120))
		}
		dst := b.MAC()
		if i%7 == 0 {
			dst = netsim.Broadcast
		}
		c.vector()
		if err := rogue.Send(netsim.Frame{
			Dst: dst, Src: rogue.MAC(), EtherType: netsim.EtherTypeIPv4, Payload: payload,
		}); err != nil {
			c.failf("rogue send %d: %v", i, err)
		}
	}

	// Liveness: the stack must still route real traffic after the storm.
	c.vector()
	if err := a.Ping(b.Addr(), 2*time.Second); err != nil {
		c.failf("post-storm ping failed (stack wedged): %v", err)
	}
}

func drainPort(p *netsim.Port) {
	go func() {
		for range p.Ready() { // closes with the rogue port
			p.Drain()
		}
	}()
}

func flipBytes(rng interface{ Intn(int) int }, b []byte, n int) {
	for i := 0; i < n && len(b) > 0; i++ {
		b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
	}
}

// encodeIPv4 builds a minimal IPv4 header + payload with a correct
// header checksum, straight from RFC 791 (oracle-side, independent of
// internal/tcpip's marshalers).
func encodeIPv4(src, dst tcpip.Addr, proto byte, payload []byte) []byte {
	total := 20 + len(payload)
	h := make([]byte, 20, total)
	h[0] = 0x45 // version 4, IHL 5
	h[2], h[3] = byte(total>>8), byte(total)
	h[8] = 64 // TTL
	h[9] = proto
	copy(h[12:16], src[:])
	copy(h[16:20], dst[:])
	ck := inetChecksum(h)
	h[10], h[11] = byte(ck>>8), byte(ck)
	return append(h, payload...)
}

func encodeICMPEcho(rng interface{ Intn(int) int }) []byte {
	body := make([]byte, 8+rng.Intn(32))
	body[0] = 8 // echo request
	ck := inetChecksum(body)
	body[2], body[3] = byte(ck>>8), byte(ck)
	return body
}

func encodeTCPGarbage(rng interface{ Intn(int) int }, port uint16) []byte {
	seg := make([]byte, 20+rng.Intn(24))
	for i := range seg {
		seg[i] = byte(rng.Intn(256))
	}
	seg[2], seg[3] = byte(port>>8), byte(port) // aim at the listener
	seg[12] = byte(5+rng.Intn(11)) << 4        // data offset 5..15 words
	return seg
}

func inetChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- dcc ---------------------------------------------------------------------

// dccSeedPrograms are the mutation bases for the compiler sweep: a
// trivial program, a control-flow-heavy one, and the declaration forms
// (xmem/root/auto/arrays) the compiler special-cases.
var dccSeedPrograms = []string{
	`int out; void main() { out = 1 + 2 * 3; }`,
	`int out;
void main() {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 10; i++) {
        if (i & 1) acc = acc + i; else acc = acc - 1;
        while (acc > 100) acc = acc - 7;
    }
    out = acc;
}`,
	`char tab[16]; char msg[] = "conform"; int out;
int f(int x) { return x << 2; }
void main() { int i; for (i = 0; i < 16; i++) tab[i] = i; out = f(tab[3]) + msg[0]; }`,
}

// checkDCCCompileSweep throws mutated and mangled source at
// dcc.Compile under randomized option sets. Invariant: the compiler
// returns (Compilation, nil) or (nil, error) — it never panics, no
// matter how broken the input.
func checkDCCCompileSweep(c *checkCtx) {
	for i := 0; c.vectors < c.budget; i++ {
		base := dccSeedPrograms[c.rng.Intn(len(dccSeedPrograms))]
		src := []byte(base)
		switch i % 4 {
		case 0: // byte-level mutation
			for k := 0; k < 1+c.rng.Intn(6); k++ {
				src[c.rng.Intn(len(src))] = byte(c.rng.Intn(128))
			}
		case 1: // truncation (unterminated constructs)
			src = src[:c.rng.Intn(len(src))]
		case 2: // token insertion
			toks := []string{"{", "}", "(", ")", ";", "if", "for", "int", "return", "++", "<<", "\"", "/*", "0x"}
			pos := c.rng.Intn(len(src) + 1)
			ins := toks[c.rng.Intn(len(toks))]
			src = append(src[:pos:pos], append([]byte(ins), src[pos:]...)...)
		default: // unstructured garbage
			src = randBytes(c.rng, c.rng.Intn(150))
		}
		opt := dcc.Options{
			Debug:    c.rng.Intn(2) == 0,
			Unroll:   c.rng.Intn(2) == 0,
			RootData: c.rng.Intn(2) == 0,
			Peephole: c.rng.Intn(2) == 0,
		}
		c.vector()
		func() {
			defer func() {
				if r := recover(); r != nil {
					c.failf("dcc.Compile panic on %q: %v", string(src), r)
				}
			}()
			_, _ = dcc.Compile(string(src), opt)
		}()

		// Unmutated seeds must keep compiling under every option mix.
		if i%50 == 0 {
			c.vector()
			if _, err := dcc.Compile(base, opt); err != nil {
				c.failf("seed program rejected under %+v: %v", opt, err)
			}
		}
	}
}
