package tcpip

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"repro/internal/netsim"
)

// checkPortTable fails the test unless s.tcbPorts counts exactly the
// local ports of the live connection-table entries.
func checkPortTable(t *testing.T, s *Stack, when string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	want := map[uint16]int{}
	for k := range s.tcbs {
		want[k.localPort]++
	}
	if !maps.Equal(want, s.tcbPorts) {
		t.Errorf("%s: tcbPorts = %v, live TCB ports = %v", when, s.tcbPorts, want)
	}
}

// portRefs returns s.tcbPorts[p].
func portRefs(s *Stack, p uint16) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tcbPorts[p]
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setNextPort points the ephemeral allocator at p.
func setNextPort(s *Stack, p uint16) {
	s.mu.Lock()
	s.nextPort = p
	s.mu.Unlock()
}

// acceptAll accepts on l until it closes, handing each connection to fn.
func acceptAll(l *Listener, fn func(*TCB)) {
	go func() {
		for {
			c, err := l.Accept(0)
			if err != nil {
				return
			}
			fn(c)
		}
	}()
}

// closeAtEOF reads c to EOF, then closes it: the passive side of a
// graceful shutdown, which leaves the active closer in TIME_WAIT.
func closeAtEOF(c *TCB) {
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := c.Read(buf); err != nil {
				c.Close()
				return
			}
		}
	}()
}

func TestPortTableTracksTCBs(t *testing.T) {
	_, stacks := testNet(t, 2)
	cli, srv := stacks[0], stacks[1]
	l, err := srv.Listen(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	acceptAll(l, closeAtEOF)

	// Active connect and passive accept.
	a, err := cli.Connect(srv.Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := portRefs(cli, a.LocalPort()); n != 1 {
		t.Errorf("connector: port %d refs = %d, want 1", a.LocalPort(), n)
	}
	waitUntil(t, "accepted TCB on port 7", func() bool { return portRefs(srv, 7) == 1 })
	checkPortTable(t, cli, "after connect")
	checkPortTable(t, srv, "after accept")

	// Dynamic-C listen sockets: a waiting socket holds no table entry;
	// the one a SYN claims does.
	dc1, err := srv.ListenOne(9)
	if err != nil {
		t.Fatal(err)
	}
	dc2, err := srv.ListenOne(9)
	if err != nil {
		t.Fatal(err)
	}
	if n := portRefs(srv, 9); n != 0 {
		t.Errorf("idle DC listeners: port 9 refs = %d, want 0", n)
	}
	b, err := cli.Connect(srv.Addr(), 9, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "DC socket bound", dc1.Established)
	if n := portRefs(srv, 9); n != 1 {
		t.Errorf("claimed DC socket: port 9 refs = %d, want 1", n)
	}
	dc2.Abort() // never matched: aborting it must not touch the count
	checkPortTable(t, srv, "after DC accept and idle abort")

	// Abort: the connector's entry goes at once, the peer's on the RST.
	b.Abort()
	if n := portRefs(cli, b.LocalPort()); n != 0 {
		t.Errorf("aborted: port %d refs = %d, want 0", b.LocalPort(), n)
	}
	waitUntil(t, "peer reset", func() bool { return portRefs(srv, 9) == 0 })
	checkPortTable(t, cli, "after abort")
	checkPortTable(t, srv, "after abort")

	// Graceful close: the active closer holds its port through
	// TIME_WAIT, then releases it on expiry.
	a.Close()
	waitUntil(t, "TIME_WAIT", func() bool { return a.State() == "TIME_WAIT" })
	if n := portRefs(cli, a.LocalPort()); n != 1 {
		t.Errorf("TIME_WAIT: port %d refs = %d, want 1", a.LocalPort(), n)
	}
	checkPortTable(t, cli, "in TIME_WAIT")
	waitUntil(t, "TIME_WAIT expiry", func() bool { return portRefs(cli, a.LocalPort()) == 0 })
	checkPortTable(t, cli, "after TIME_WAIT expiry")
	waitUntil(t, "passive close", func() bool { return portRefs(srv, 7) == 0 })
	checkPortTable(t, srv, "after passive close")

	// Stack.Close aborts everything left and empties the count.
	for i := 0; i < 3; i++ {
		if _, err := cli.Connect(srv.Addr(), 7, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "three accepted", func() bool { return portRefs(srv, 7) == 3 })
	checkPortTable(t, srv, "three accepted")
	cli.Close()
	srv.Close()
	for _, s := range stacks {
		checkPortTable(t, s, "after Stack.Close")
		s.mu.Lock()
		n := len(s.tcbPorts)
		s.mu.Unlock()
		if n != 0 {
			t.Errorf("after Stack.Close: %d ports still counted", n)
		}
	}
}

func TestEphemeralPortSkipsTimeWaitAcrossWrap(t *testing.T) {
	_, stacks := testNet(t, 2)
	cli, srv := stacks[0], stacks[1]
	l, err := srv.Listen(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	acceptAll(l, closeAtEOF)

	// Park a connection on 49152 in TIME_WAIT, held there while the
	// allocator wraps past it.
	setNextPort(cli, 49152)
	tw, err := cli.Connect(srv.Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tw.LocalPort() != 49152 {
		t.Fatalf("first port = %d, want 49152", tw.LocalPort())
	}
	tw.Close()
	waitUntil(t, "TIME_WAIT", func() bool { return tw.State() == "TIME_WAIT" })
	tw.mu.Lock()
	tw.timeWaitAt = time.Now().Add(time.Hour)
	tw.mu.Unlock()

	setNextPort(cli, 65535)
	var got []uint16
	for i := 0; i < 2; i++ {
		c, err := cli.Connect(srv.Addr(), 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c.LocalPort())
		defer c.Abort()
	}
	if got[0] != 65535 || got[1] != 49153 {
		t.Errorf("ports across the wrap = %v, want [65535 49153] (49152 is in TIME_WAIT)", got)
	}
	checkPortTable(t, cli, "after wrap")

	// Once TIME_WAIT expires the port is free again.
	tw.mu.Lock()
	tw.timeWaitAt = time.Now()
	tw.mu.Unlock()
	waitUntil(t, "TIME_WAIT expiry", func() bool { return portRefs(cli, 49152) == 0 })
	cli.mu.Lock()
	cli.nextPort = 49152
	p := cli.ephemeralPort()
	cli.mu.Unlock()
	if p != 49152 {
		t.Errorf("after expiry: port = %d, want 49152", p)
	}
}

func TestEphemeralPortNeverReturnsLivePort(t *testing.T) {
	_, stacks := testNet(t, 2)
	cli, srv := stacks[0], stacks[1]
	l, err := srv.Listen(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	acceptAll(l, func(*TCB) {})
	// Hold a spread of live connections, then sweep the allocator over
	// the whole range twice: no candidate may collide with one.
	live := map[uint16]bool{}
	for i := 0; i < 32; i++ {
		setNextPort(cli, uint16(49152+i*509))
		c, err := cli.Connect(srv.Addr(), 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Abort()
		live[c.LocalPort()] = true
	}
	cli.mu.Lock()
	defer cli.mu.Unlock()
	for i := 0; i < 2*16384; i++ {
		if p := cli.ephemeralPort(); p == 0 || live[p] {
			t.Fatalf("ephemeralPort returned %d (live: %v)", p, live[p])
		}
	}
}

func TestUDPEphemeralAvoidsTCPPorts(t *testing.T) {
	_, stacks := testNet(t, 2)
	cli, srv := stacks[0], stacks[1]
	l, err := srv.Listen(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	acceptAll(l, func(*TCB) {})
	setNextPort(cli, 50000)
	c, err := cli.Connect(srv.Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	setNextPort(cli, c.LocalPort())
	u, err := cli.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if u.Port() == c.LocalPort() {
		t.Errorf("UDP ephemeral bind took TCP-held port %d", u.Port())
	}
}

// fillTimeWait registers n connections in TIME_WAIT on s, each on its
// own ephemeral port, with an expiry far enough out to outlive the
// caller: the table a busy reconnecting client carries.
func fillTimeWait(tb testing.TB, s *Stack, n int) {
	tb.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	peer := IP4(10, 0, 0, 250)
	for i := 0; i < n; i++ {
		p := s.ephemeralPort()
		if p == 0 {
			tb.Fatal("ephemeral ports exhausted")
		}
		t := newTCB(s)
		t.localPort, t.remoteIP, t.remotePort = p, peer, 80
		t.state = stateTimeWait
		t.timeWaitAt = time.Now().Add(time.Hour)
		s.addTCBLocked(tcpKey{peer, 80, p}, t)
	}
}

// BenchmarkConnectUnderTimeWait times one connect, accept and abort
// with 0 and with 2000 TIME_WAIT connections in the connector's table.
// Port allocation is a per-port count lookup, so ns/op should not grow
// with the table.
func BenchmarkConnectUnderTimeWait(b *testing.B) {
	for _, tw := range []int{0, 2000} {
		b.Run(fmt.Sprintf("timewait=%d", tw), func(b *testing.B) {
			hub := netsim.NewHub()
			defer hub.Close()
			cli, err := NewStack(hub, IP4(10, 0, 0, 1))
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			srv, err := NewStack(hub, IP4(10, 0, 0, 2))
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			l, err := srv.Listen(7, 1)
			if err != nil {
				b.Fatal(err)
			}
			// Each op waits for its accept, so the backlog never fills
			// however the accepting goroutine is scheduled.
			accepted := make(chan *TCB, 1)
			acceptAll(l, func(c *TCB) { accepted <- c })
			fillTimeWait(b, cli, tw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := cli.Connect(srv.Addr(), 7, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				<-accepted
				c.Abort()
			}
			b.StopTimer() // keep the deferred teardown out of the measurement
		})
	}
}
