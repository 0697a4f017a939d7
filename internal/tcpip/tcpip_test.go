package tcpip

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// testNet builds a hub with n stacks at 10.0.0.1..n.
func testNet(t *testing.T, n int) (*netsim.Hub, []*Stack) {
	t.Helper()
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	stacks := make([]*Stack, n)
	for i := range stacks {
		s, err := NewStack(hub, IP4(10, 0, 0, byte(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		stacks[i] = s
	}
	return hub, stacks
}

func TestChecksum(t *testing.T) {
	// RFC 1071 example: verify complement-sum-to-zero property.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	cs := checksum(data)
	withCS := append([]byte(nil), data...)
	withCS = append(withCS, byte(cs>>8), byte(cs))
	if checksum(withCS) != 0 {
		t.Errorf("checksum of data+checksum = %#x, want 0", checksum(withCS))
	}
	// Odd length.
	odd := []byte{0xab}
	if checksum(odd) != ^uint16(0xab00) {
		t.Errorf("odd-length checksum = %#x", checksum(odd))
	}
}

func TestIPRoundTrip(t *testing.T) {
	p := ipPacket{src: IP4(1, 2, 3, 4), dst: IP4(5, 6, 7, 8), proto: ProtoTCP, ttl: 64, payload: []byte("hello")}
	raw := marshalIP(p)
	got, err := parseIP(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.src != p.src || got.dst != p.dst || got.proto != p.proto || !bytes.Equal(got.payload, p.payload) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestIPRejectsCorruption(t *testing.T) {
	raw := marshalIP(ipPacket{src: IP4(1, 2, 3, 4), dst: IP4(5, 6, 7, 8), proto: 6, ttl: 64, payload: []byte("x")})
	for _, i := range []int{0, 2, 9, 12, 16} {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0xff
		if _, err := parseIP(bad); err == nil {
			t.Errorf("corrupting byte %d went undetected", i)
		}
	}
	if _, err := parseIP(raw[:10]); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestTCPSegmentRoundTrip(t *testing.T) {
	seg := tcpSegment{srcPort: 1234, dstPort: 80, seq: 0xdeadbeef, ack: 0xcafebabe,
		flags: flagSYN | flagACK, window: 4096, payload: []byte("data")}
	raw := marshalTCP(IP4(1, 1, 1, 1), IP4(2, 2, 2, 2), seg)
	if pseudoChecksum(ProtoTCP, IP4(1, 1, 1, 1), IP4(2, 2, 2, 2), raw) != 0 {
		t.Error("checksum does not verify")
	}
	got, ok := parseTCP(raw)
	if !ok {
		t.Fatal("parse failed")
	}
	if got.srcPort != 1234 || got.dstPort != 80 || got.seq != 0xdeadbeef ||
		got.ack != 0xcafebabe || got.flags != flagSYN|flagACK || string(got.payload) != "data" {
		t.Errorf("round trip: %+v", got)
	}
}

func TestARPAndPing(t *testing.T) {
	_, stacks := testNet(t, 2)
	if err := stacks[0].Ping(stacks[1].Addr(), 2*time.Second); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// Second ping uses the warmed ARP cache.
	if err := stacks[0].Ping(stacks[1].Addr(), 2*time.Second); err != nil {
		t.Fatalf("second ping: %v", err)
	}
}

func TestPingUnknownHostTimesOut(t *testing.T) {
	_, stacks := testNet(t, 1)
	err := stacks[0].Ping(IP4(10, 0, 0, 99), 200*time.Millisecond)
	if err == nil {
		t.Fatal("ping to absent host succeeded")
	}
}

func TestTCPConnectAcceptEcho(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, err := stacks[1].Listen(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stacks[1].Listen(7, 5); !errors.Is(err, ErrPortInUse) {
		t.Errorf("second listener on tcp/7: %v, want ErrPortInUse", err)
	}
	go func() {
		conn, err := l.Accept(2 * time.Second)
		if err != nil {
			return
		}
		buf := make([]byte, 256)
		n, err := conn.Read(buf)
		if err != nil {
			return
		}
		conn.Write(buf[:n])
		conn.Close()
	}()
	conn, err := stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	if ip, port := conn.RemoteAddr(); ip != stacks[1].Addr() || port != 7 {
		t.Errorf("RemoteAddr = %v:%d, want %v:7", ip, port, stacks[1].Addr())
	}
	if _, err := conn.Write([]byte("echo me")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := conn.ReadDeadline(buf, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "echo me" {
		t.Errorf("echo = %q", buf[:n])
	}
	for i := 0; i < 2; i++ { // a second Close is harmless
		if err := conn.Close(); err != nil {
			t.Errorf("close %d: %v", i+1, err)
		}
	}
}

// TestRTTHistogramQuantiles checks the tcp.rtt_us instrument end to
// end: a real echo between two stacks sharing a registry samples RTTs
// into a histogram whose quantiles read back in order.
func TestRTTHistogramQuantiles(t *testing.T) {
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	reg := telemetry.NewRegistry()
	stacks := make([]*Stack, 2)
	for i := range stacks {
		s, err := NewStackWithTelemetry(hub, IP4(10, 0, 0, byte(i+1)), reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		stacks[i] = s
	}
	l, err := stacks[1].Listen(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept(2 * time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 256)
		for {
			n, err := conn.ReadDeadline(buf, time.Now().Add(2*time.Second))
			if err != nil {
				return
			}
			conn.Write(buf[:n])
		}
	}()
	conn, err := stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer conn.Close()
	probe := []byte("rtt probe")
	for i := 0; i < 8; i++ {
		if _, err := conn.Write(probe); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Peek(len(probe), time.Now().Add(2*time.Second)); err != nil {
			t.Fatal(err)
		}
		conn.Discard(len(probe))
	}
	h := reg.Histogram("tcp.rtt_us")
	if h.Count() == 0 {
		t.Fatal("no RTT samples after an echo")
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if !(h.Min() <= p50 && p50 <= p99 && p99 <= h.Max()) {
		t.Errorf("quantiles out of order: min=%d p50=%d p99=%d max=%d", h.Min(), p50, p99, h.Max())
	}
}

func TestTCPConnectionRefused(t *testing.T) {
	_, stacks := testNet(t, 2)
	_, err := stacks[0].Connect(stacks[1].Addr(), 81, 2*time.Second)
	if err == nil {
		t.Fatal("connect to closed port succeeded")
	}
}

func TestTCPBulkTransfer(t *testing.T) {
	_, stacks := testNet(t, 2)
	const size = 256 * 1024
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i * 31)
	}
	l, err := stacks[1].Listen(8080, 1)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		conn, err := l.Accept(2 * time.Second)
		if err != nil {
			errCh <- err
			return
		}
		_, err = conn.Write(want)
		conn.Close()
		errCh <- err
	}()
	conn, err := stacks[0].Connect(stacks[1].Addr(), 8080, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	buf := make([]byte, 8192)
	for {
		n, err := conn.ReadDeadline(buf, time.Now().Add(5*time.Second))
		got.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read after %d bytes: %v", got.Len(), err)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", got.Len(), size)
	}
}

func TestTCPBulkTransferWithLoss(t *testing.T) {
	hub, stacks := testNet(t, 2)
	const size = 32 * 1024
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i * 7)
	}
	l, err := stacks[1].Listen(8080, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Serve every accepted connection (connect retries below may
		// produce more than one).
		for {
			conn, err := l.Accept(60 * time.Second)
			if err != nil {
				return
			}
			go func(c *TCB) {
				c.Write(want)
				c.Close()
			}(conn)
		}
	}()
	// Retry the connect: under the race detector with many packages
	// sharing the machine, one 15s attempt can starve.
	var conn *TCB
	for attempt := 0; attempt < 3; attempt++ {
		conn, err = stacks[0].Connect(stacks[1].Addr(), 8080, 15*time.Second)
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	// Drop 15% of frames only once data is flowing, so the handshake
	// and the final FIN exchange stay deterministic.
	if err := hub.SetFaultPlan(&netsim.FaultPlan{Seed: 99, LossGoodPct: 15}); err != nil {
		t.Fatal(err)
	}
	defer hub.SetFaultPlan(nil)
	var got bytes.Buffer
	buf := make([]byte, 8192)
	deadline := time.Now().Add(30 * time.Second)
	for got.Len() < size {
		n, err := conn.ReadDeadline(buf, deadline)
		got.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read after %d bytes: %v", got.Len(), err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("lossy transfer corrupted: got %d bytes, want %d", got.Len(), size)
	}
}

func TestTCPGracefulCloseBothDirections(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, _ := stacks[1].Listen(7, 1)
	done := make(chan *TCB, 1)
	go func() {
		conn, err := l.Accept(2 * time.Second)
		if err != nil {
			done <- nil
			return
		}
		// Read until EOF, then close our side.
		buf := make([]byte, 64)
		for {
			_, err := conn.ReadDeadline(buf, time.Now().Add(2*time.Second))
			if err != nil {
				break
			}
		}
		conn.Close()
		done <- conn
	}()
	conn, err := stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("bye"))
	conn.Close()
	// We should observe the peer's FIN as EOF.
	buf := make([]byte, 16)
	if _, err := conn.ReadDeadline(buf, time.Now().Add(2*time.Second)); err != io.EOF {
		t.Errorf("read after close = %v, want EOF", err)
	}
	srvConn := <-done
	if srvConn == nil {
		t.Fatal("server accept failed")
	}
	for _, c := range []*TCB{conn, srvConn} {
		waitUntil(t, "closed", func() bool { s := stateOf(c); return s == stateClosed || s == stateTimeWait })
	}
}

func TestTCPWriteAfterClose(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, _ := stacks[1].Listen(7, 1)
	go l.Accept(2 * time.Second)
	conn, err := stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := conn.Write([]byte("late")); err == nil {
		t.Error("write after close succeeded")
	}
}

func TestTCPBacklogRefusesExcess(t *testing.T) {
	_, stacks := testNet(t, 2)
	// backlog 1, never accepted: second handshake may complete or be
	// refused by backlog accounting; third must be refused.
	if _, err := stacks[1].Listen(7, 1); err != nil {
		t.Fatal(err)
	}
	first, err := stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatalf("first connect: %v", err)
	}
	defer first.Close()
	if _, err := stacks[0].Connect(stacks[1].Addr(), 7, 500*time.Millisecond); err == nil {
		t.Error("connect beyond backlog succeeded")
	}
}

// A SYN whose handshake dies in SYN_RCVD must give its backlog slot
// back. Here the SYN claims stacks[0] as its source, so stacks[0]
// answers the SYN-ACK with a RST, as a client whose connect timed out
// does. Before the slot was returned, each such death shrank the
// backlog for good, and a health port probed over a lossy wire ended
// up refusing every probe.
func TestBacklogSlotReturnedWhenHandshakeDies(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, err := stacks[1].Listen(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		stacks[1].demuxTCP(stacks[0].Addr(), tcpSegment{
			srcPort: uint16(40000 + i), dstPort: 7, seq: 1000, flags: flagSYN, window: 4096})
		deadline := time.Now().Add(2 * time.Second)
		for {
			l.mu.Lock()
			pending := l.pending
			l.mu.Unlock()
			if pending == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("SYN %d: backlog slot still held after the RST", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	go l.Accept(2 * time.Second)
	conn, err := stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatalf("connect after reset handshakes: %v", err)
	}
	conn.Close()
}

func TestListenOneBecomesConnection(t *testing.T) {
	_, stacks := testNet(t, 2)
	sock, err := stacks[1].ListenOne(2000)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := sock.WaitEstablished(2 * time.Second); err != nil {
			return
		}
		buf := make([]byte, 64)
		n, err := sock.ReadDeadline(buf, time.Now().Add(2*time.Second))
		if err != nil {
			return
		}
		sock.Write(bytes.ToUpper(buf[:n]))
	}()
	conn, err := stacks[0].Connect(stacks[1].Addr(), 2000, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("shout"))
	buf := make([]byte, 64)
	n, err := conn.ReadDeadline(buf, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "SHOUT" {
		t.Errorf("got %q", buf[:n])
	}
}

func TestListenOneRefusesWhenExhausted(t *testing.T) {
	_, stacks := testNet(t, 2)
	sock, err := stacks[1].ListenOne(2000)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := stacks[0].Connect(stacks[1].Addr(), 2000, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := sock.WaitEstablished(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// No listening socket remains: next SYN must be refused quickly.
	if _, err := stacks[0].Connect(stacks[1].Addr(), 2000, time.Second); err == nil {
		t.Error("connect with no listening socket succeeded")
	}
}

func TestListenOneMultipleSlots(t *testing.T) {
	_, stacks := testNet(t, 2)
	var socks []*TCB
	for i := 0; i < 3; i++ {
		sk, err := stacks[1].ListenOne(2000)
		if err != nil {
			t.Fatal(err)
		}
		socks = append(socks, sk)
	}
	var conns []*TCB
	for i := 0; i < 3; i++ {
		c, err := stacks[0].Connect(stacks[1].Addr(), 2000, 2*time.Second)
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		conns = append(conns, c)
	}
	for i, sk := range socks {
		if err := sk.WaitEstablished(2 * time.Second); err != nil {
			t.Errorf("slot %d not established: %v", i, err)
		}
	}
	for _, c := range conns {
		c.Close()
	}
}

func TestTCPSimultaneousConnections(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, _ := stacks[1].Listen(7, 8)
	go func() {
		for {
			conn, err := l.Accept(2 * time.Second)
			if err != nil {
				return
			}
			go func(c *TCB) {
				buf := make([]byte, 64)
				for {
					n, err := c.ReadDeadline(buf, time.Now().Add(2*time.Second))
					if err != nil {
						c.Close()
						return
					}
					c.Write(buf[:n])
				}
			}(conn)
		}
	}()
	const clients = 6
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(id byte) {
			conn, err := stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			msg := []byte{'c', id}
			if _, err := conn.Write(msg); err != nil {
				errs <- err
				return
			}
			buf := make([]byte, 8)
			n, err := conn.ReadDeadline(buf, time.Now().Add(2*time.Second))
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf[:n], msg) {
				errs <- io.ErrUnexpectedEOF
				return
			}
			errs <- nil
		}(byte(i))
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Errorf("client: %v", err)
		}
	}
}

func TestStackCloseAbortsConnections(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, _ := stacks[1].Listen(7, 1)
	go l.Accept(2 * time.Second)
	conn, err := stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	stacks[0].Close()
	buf := make([]byte, 8)
	if _, err := conn.ReadDeadline(buf, time.Now().Add(time.Second)); err == nil {
		t.Error("read on closed stack succeeded")
	}
}

// TestHaltedHostReconnects: Halt is a power cut, so the peer keeps its
// side of a live connection. A host restarted at the same address
// reuses the same ephemeral port, and its SYN lands on that half-open
// connection. The stale side answers with an ACK, the new host resets
// it, and the retransmitted SYN reaches the listener (RFC 9293
// §3.10.7.3), instead of going unanswered until the connect times out.
func TestHaltedHostReconnects(t *testing.T) {
	hub, stacks := testNet(t, 1)
	srv := stacks[0]
	l, err := srv.Listen(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	accept := func() *TCB {
		t.Helper()
		c, err := l.Accept(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ip := IP4(10, 0, 0, 9)
	old, err := NewStack(hub, ip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Connect(srv.Addr(), 7, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	stale := accept()
	old.Halt()

	fresh, err := NewStack(hub, ip)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Close)
	start := time.Now()
	if _, err := fresh.Connect(srv.Addr(), 7, 2*time.Second); err != nil {
		t.Fatalf("connect from the restarted host: %v", err)
	}
	t.Logf("reconnected in %v", time.Since(start))
	_, stalePort := stale.RemoteAddr()
	if _, port := accept().RemoteAddr(); port != stalePort {
		t.Fatalf("restarted host connected from port %d, not the stale connection's %d: nothing collided", port, stalePort)
	}
	buf := make([]byte, 1)
	if _, err := stale.ReadDeadline(buf, time.Now().Add(time.Second)); !errors.Is(err, ErrConnReset) {
		t.Fatalf("stale connection: %v, want %v", err, ErrConnReset)
	}
}

// TestStackRunsOneGoroutine: a stack is one loop, like the board's
// tcp_tick. NewStack adds exactly one goroutine and Close gives it back.
func TestStackRunsOneGoroutine(t *testing.T) {
	hub := netsim.NewHub()
	defer hub.Close()
	base := settledGoroutines()
	s, err := NewStack(hub, IP4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines() - base; got != 1 {
		t.Errorf("NewStack added %d goroutines, want 1", got)
	}
	s.Close()
	if got := settledGoroutines() - base; got != 0 {
		t.Errorf("%d goroutines outlive Close, want 0", got)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for a few consecutive reads, so goroutines that earlier tests'
// cleanups are still retiring do not skew a delta.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && same < 5; i++ {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

func TestEphemeralPortsDistinct(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, _ := stacks[1].Listen(7, 16)
	go func() {
		for {
			if _, err := l.Accept(time.Second); err != nil {
				return
			}
		}
	}()
	seen := map[uint16]bool{}
	for i := 0; i < 5; i++ {
		c, err := stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if seen[c.localPort] {
			t.Errorf("ephemeral port %d reused while alive", c.localPort)
		}
		seen[c.localPort] = true
		defer c.Close()
	}
}

func TestSeqComparisonWraps(t *testing.T) {
	if !seqLT(0xfffffff0, 0x10) {
		t.Error("seqLT should handle wraparound")
	}
	if seqLT(0x10, 0xfffffff0) {
		t.Error("seqLT inverted at wraparound")
	}
	if !seqLEQ(5, 5) {
		t.Error("seqLEQ not reflexive")
	}
}

// TestOutOfOrderReassembly injects data segments in scrambled order
// directly into the state machine and checks the receive stream comes
// out contiguous without waiting for retransmission.
func TestOutOfOrderReassembly(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, err := stacks[1].Listen(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	acceptedCh := make(chan *TCB, 1)
	go func() {
		c, err := l.Accept(5 * time.Second)
		if err != nil {
			acceptedCh <- nil
			return
		}
		acceptedCh <- c
	}()
	cli, err := stacks[0].Connect(stacks[1].Addr(), 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-acceptedCh
	if srv == nil {
		t.Fatal("accept failed")
	}
	// Build three in-order segments but deliver 3,2,1.
	srv.mu.Lock()
	base := srv.rcvNxt
	srcPort := srv.remotePort
	dstPort := srv.localPort
	srv.mu.Unlock()
	seg := func(off uint32, payload string) tcpSegment {
		return tcpSegment{srcPort: srcPort, dstPort: dstPort,
			seq: base + off, ack: 0, flags: flagACK, window: 0xffff,
			payload: []byte(payload)}
	}
	srv.handleSegment(seg(8, "charlie!"))
	srv.handleSegment(seg(4, "bob!"))
	if srv.Avail() != 0 {
		t.Fatalf("data delivered before gap filled: %d bytes", srv.Avail())
	}
	srv.handleSegment(seg(0, "alf!"))
	buf := make([]byte, 32)
	var got []byte
	for len(got) < 16 {
		n, err := srv.ReadDeadline(buf, time.Now().Add(2*time.Second))
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, got)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "alf!bob!charlie!" {
		t.Errorf("reassembled = %q", got)
	}
}

// TestOOOBounded: a flood of far-future segments must not balloon the
// reassembly buffer.
func TestOOOBounded(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, _ := stacks[1].Listen(7, 1)
	acceptedCh := make(chan *TCB, 1)
	go func() {
		c, _ := l.Accept(5 * time.Second)
		acceptedCh <- c
	}()
	cli, err := stacks[0].Connect(stacks[1].Addr(), 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-acceptedCh
	if srv == nil {
		t.Fatal("accept failed")
	}
	srv.mu.Lock()
	base := srv.rcvNxt
	srcPort := srv.remotePort
	dstPort := srv.localPort
	srv.mu.Unlock()
	for i := uint32(1); i <= 500; i++ {
		srv.handleSegment(tcpSegment{srcPort: srcPort, dstPort: dstPort,
			seq: base + i*10, flags: flagACK, window: 0xffff,
			payload: []byte("xxxxxxxxxx")})
	}
	srv.mu.Lock()
	n := len(srv.ooo)
	srv.mu.Unlock()
	if n > maxOOOSegments {
		t.Errorf("ooo buffer holds %d segments, cap %d", n, maxOOOSegments)
	}
}
