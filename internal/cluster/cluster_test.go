package cluster

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

var (
	keyOnce sync.Once
	testKey *rsa.PrivateKey
)

func rsaKey(t testing.TB) *rsa.PrivateKey {
	keyOnce.Do(func() {
		k, err := rsa.GenerateKey(prng.NewXorshift(0xfee7), 512)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		testKey = k
	})
	return testKey
}

const backendPort = 9000

// setTiming sets one of the package's timing variables for the rest
// of the test. Call it before starting anything that reads the
// variable, so the restore runs after that is torn down.
func setTiming(t *testing.T, v *time.Duration, d time.Duration) {
	old := *v
	*v = d
	t.Cleanup(func() { *v = old })
}

// testWorld builds the fabric: a client stack, a backend echo stack,
// and a secure fleet behind the balancer with chaos-friendly health
// timing (fast probes, short backoff). tr, when non-nil, receives the
// fleet's trace events.
func testWorld(t *testing.T, nodes int, tr *telemetry.Trace) (*tcpip.Stack, *Cluster) {
	t.Helper()
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	cli, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	back, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(back.Close)
	startEchoBackend(t, back)

	setTiming(t, &probeInterval, 20*time.Millisecond)
	setTiming(t, &probeTimeout, 150*time.Millisecond)
	setTiming(t, &reinstateBackoff, 100*time.Millisecond)
	setTiming(t, &forwardTimeout, 500*time.Millisecond)
	cl, err := New(hub, Config{
		Nodes:          nodes,
		Target:         back.Addr(),
		TargetPort:     backendPort,
		Secure:         true,
		ServerKey:      rsaKey(t),
		TicketMaterial: []byte("fleet ticket material"),
		RandSeed:       0xC1A5,
		Trace:          tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cli, cl
}

func startEchoBackend(t *testing.T, s *tcpip.Stack) {
	t.Helper()
	l, err := s.Listen(backendPort, 32)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept(30 * time.Second)
			if err != nil {
				return
			}
			go func(c *tcpip.TCB) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.ReadDeadline(buf, time.Now().Add(30*time.Second))
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(conn)
		}
	}()
}

// dialer builds an issl Dialer that connects through the balancer.
func dialer(cli *tcpip.Stack, cl *Cluster, seed uint64) *issl.Dialer {
	addr, port := cl.Addr()
	return &issl.Dialer{
		Dial: func() (io.ReadWriteCloser, error) {
			return cli.Connect(addr, port, 10*time.Second)
		},
		Config: issl.Config{
			Profile:          issl.ProfileUnix,
			Rand:             prng.NewXorshift(seed),
			HandshakeTimeout: 20 * time.Second,
		},
		Policy: issl.RetryPolicy{MaxAttempts: 8, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second},
	}
}

func echo(t *testing.T, conn *issl.Conn, msg []byte) {
	t.Helper()
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	got := make([]byte, 0, len(msg))
	buf := make([]byte, 4096)
	for len(got) < len(msg) {
		n, err := conn.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			t.Fatalf("echo read after %d/%d bytes: %v", len(got), len(msg), err)
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch (%d bytes)", len(msg))
	}
}

// ticketsOn sums a counter across every instance registry.
func ticketsOn(cl *Cluster, name string) uint64 {
	var total uint64
	for i := 0; i < cl.Nodes(); i++ {
		total += cl.NodeRegistry(i).Counter(name).Value()
	}
	return total
}

// TestSecureEchoThroughBalancer: the plain path — handshake through
// the L4 splice, byte-exact echo, a ticket earned.
func TestSecureEchoThroughBalancer(t *testing.T) {
	cli, cl := testWorld(t, 3, nil)
	d := dialer(cli, cl, 101)
	conn, tr, err := d.DialWithRetry()
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	defer conn.Close()
	echo(t, conn, bytes.Repeat([]byte{0x5A}, 600))
	if s := d.Session(); s == nil || len(s.Ticket) == 0 {
		t.Fatal("no sealed ticket through the balancer")
	}
	if got := cl.Balancer().Stats().Accepted.Value(); got != 1 {
		t.Errorf("balancer accepted = %d, want 1", got)
	}
	if got := ticketsOn(cl, "issl.tickets_issued"); got != 1 {
		t.Errorf("fleet tickets_issued = %d, want 1", got)
	}
}

// TestKillNodeTicketResumesElsewhere is the tentpole in one scene: a
// client earns its ticket on one instance, that instance is killed,
// and the reconnect lands an abbreviated resumption on a sibling that
// has never seen the client — no shared cache, just the ticket.
func TestKillNodeTicketResumesElsewhere(t *testing.T) {
	cli, cl := testWorld(t, 3, nil)
	d := dialer(cli, cl, 202)
	conn, tr, err := d.DialWithRetry()
	if err != nil {
		t.Fatal(err)
	}
	echo(t, conn, []byte("earn a ticket"))
	conn.Close()
	tr.Close()

	// Find the instance that served us; kill it.
	victim := -1
	for i := 0; i < cl.Nodes(); i++ {
		if cl.NodeRegistry(i).Counter("issl.tickets_issued").Value() == 1 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no instance issued the ticket")
	}
	cl.KillNode(victim)
	if !waitNodeState(cl.Balancer(), victim, false, 5*time.Second) {
		t.Fatal("balancer never marked the killed node down")
	}

	conn2, tr2, err := d.DialWithRetry()
	if err != nil {
		t.Fatalf("reconnect after kill: %v", err)
	}
	defer tr2.Close()
	defer conn2.Close()
	if !conn2.Resumed() {
		t.Fatal("reconnect fell back to a full handshake; ticket did not travel")
	}
	echo(t, conn2, []byte("resumed on a sibling"))
	if got := cl.NodeRegistry(victim).Counter("issl.tickets_resumed").Value(); got != 0 {
		t.Errorf("dead instance resumed %d sessions", got)
	}
	if got := ticketsOn(cl, "issl.tickets_resumed"); got != 1 {
		t.Errorf("fleet tickets_resumed = %d, want 1 (on a surviving instance)", got)
	}
}

// TestKillNodeGoesSilent: a kill is a power cut, not a closed port.
// From the moment KillNode starts no frame leaves the node: the
// connection it was relaying gets no RST or FIN, and a connect whose
// SYN reaches the node during the kill gets neither a SYN-ACK nor a
// RST, so it times out. Cluster.Close still returns promptly after.
func TestKillNodeGoesSilent(t *testing.T) {
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	stack := func(last byte) *tcpip.Stack {
		s, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	cli, back := stack(1), stack(3)
	startEchoBackend(t, back)
	// No probes: every frame the node sends is the test's doing.
	setTiming(t, &probeInterval, time.Hour)
	cl, err := New(hub, Config{Nodes: 1, Target: back.Addr(), TargetPort: backendPort})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	node := cl.nodes[0].Addr

	live, err := cli.Connect(node, nodePort, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Abort()
	buf := make([]byte, 4)
	if _, err := live.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if n, err := live.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo through the node: %q, %v", buf[:n], err)
	}

	// Let the last ACKs land, then sniff: from here on every frame
	// from the node's address is the kill's doing.
	time.Sleep(100 * time.Millisecond)
	sniff, err := hub.AttachPromiscuous(netsim.MAC{0x02, 0xee, 0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var fromNode atomic.Int64
	sniffed := make(chan struct{})
	go func() {
		defer close(sniffed)
		for range sniff.Ready() {
			frames, _ := sniff.Drain()
			for _, f := range frames {
				p := f.Payload()
				var src []byte
				switch f.EtherType() {
				case netsim.EtherTypeIPv4:
					src = p[12:16]
				case netsim.EtherTypeARP:
					src = p[14:18]
				}
				if bytes.Equal(src, node[:]) {
					fromNode.Add(1)
				}
			}
		}
	}()

	// On a 100 ms wire the SYN is still in flight when the kill starts.
	hub.SetLatency(100 * time.Millisecond)
	dialed := make(chan error, 1)
	go func() {
		tcb, err := cli.Connect(node, nodePort, 600*time.Millisecond)
		if err == nil {
			tcb.Abort()
		}
		dialed <- err
	}()
	cl.KillNode(0)
	if _, err := live.ReadDeadline(buf, time.Now().Add(300*time.Millisecond)); !errors.Is(err, tcpip.ErrTimeout) {
		t.Errorf("relayed connection after the kill: %v, want a timeout (no RST, no FIN)", err)
	}
	if err := <-dialed; !errors.Is(err, tcpip.ErrTimeout) {
		t.Errorf("connect during the kill: %v, want a timeout (no SYN-ACK, no RST)", err)
	}
	time.Sleep(200 * time.Millisecond) // drain the wire into the sniffer
	sniff.Close()
	<-sniffed
	if n := fromNode.Load(); n != 0 {
		t.Errorf("%d frames left the node after KillNode started, want 0", n)
	}

	closed := make(chan struct{})
	go func() {
		cl.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Cluster.Close still running 5s after the kill")
	}
}

// TestNodeDownDropsForwards: a killed node is silent, so only the
// balancer's probes learn it died. When they mark it down, the
// balancer aborts its relays to the node, and a client waiting on a
// reply from it sees its connection end then, not at its own timeout.
func TestNodeDownDropsForwards(t *testing.T) {
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	stack := func(last byte) *tcpip.Stack {
		s, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	cli, back := stack(1), stack(3)
	startEchoBackend(t, back)
	setTiming(t, &probeInterval, 20*time.Millisecond)
	setTiming(t, &probeTimeout, 50*time.Millisecond)
	cl, err := New(hub, Config{Nodes: 1, Target: back.Addr(), TargetPort: backendPort})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	addr, port := cl.Addr()
	conn, err := cli.Connect(addr, port, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Abort()
	buf := make([]byte, 4)
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo through the balancer: %q, %v", buf[:n], err)
	}

	cl.KillNode(0)
	start := time.Now()
	_, err = conn.ReadDeadline(buf, start.Add(5*time.Second))
	if err == nil || errors.Is(err, tcpip.ErrTimeout) {
		t.Fatalf("read through the balancer after the kill: %v, want the connection ended", err)
	}
	if cl.Balancer().NodeUp(0) {
		t.Fatal("connection ended before the probes marked the node down")
	}
	t.Logf("connection ended %v after the kill: %v", time.Since(start), err)
}

// TestKillDuringDetectionWindowFailsOver: connections arriving after
// the kill but before the health checker notices must fail over via
// the forward-connect path, not error out.
func TestKillDuringDetectionWindowFailsOver(t *testing.T) {
	cli, cl := testWorld(t, 3, nil)
	cl.KillNode(1)
	// No waitNodeState: dial immediately, racing the probes.
	var survived int
	for i := 0; i < 4; i++ {
		d := dialer(cli, cl, 300+uint64(i))
		conn, tr, err := d.DialWithRetry()
		if err != nil {
			t.Fatalf("dial %d during detection window: %v", i, err)
		}
		echo(t, conn, []byte("window"))
		conn.Close()
		tr.Close()
		survived++
	}
	if survived != 4 {
		t.Fatalf("only %d/4 clients survived the window", survived)
	}
}

// TestRestartReinstatesAfterBackoff: a restarted node must rejoin —
// but only after riseThreshold probes AND the reinstatement backoff,
// and it must then take traffic again.
func TestRestartReinstatesAfterBackoff(t *testing.T) {
	tr := telemetry.NewTrace(1 << 14)
	cli, cl := testWorld(t, 2, tr)
	cl.KillNode(0)
	if !waitNodeState(cl.Balancer(), 0, false, 5*time.Second) {
		t.Fatal("kill not detected")
	}
	if err := cl.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if !waitNodeState(cl.Balancer(), 0, true, 5*time.Second) {
		t.Fatal("restarted node never reinstated")
	}
	// Backoff gate: the balancer's own down time, carried on its
	// node.up event, must cover the backoff (the probes were passing
	// well before it).
	if down := nodeUpDownTime(t, tr, 0); down < reinstateBackoff {
		t.Errorf("reinstated after only %v; backoff gate leaked", down)
	}
	if got := cl.Balancer().Stats().NodeUps.Value(); got != 1 {
		t.Errorf("node_ups = %d, want 1", got)
	}
	// The reborn instance serves: with node 1 also up, run enough
	// clients that the hash ring hits node 0 at least once.
	served := func() uint64 {
		return cl.NodeRegistry(0).Counter("redirector.accepted").Value()
	}
	base := served()
	for i := 0; i < 6 && served() == base; i++ {
		d := dialer(cli, cl, 400+uint64(i))
		conn, tr, err := d.DialWithRetry()
		if err != nil {
			t.Fatalf("post-restart dial %d: %v", i, err)
		}
		echo(t, conn, []byte("reborn"))
		conn.Close()
		tr.Close()
	}
	if served() == base {
		t.Error("restarted instance took no traffic")
	}
}

// nodeUpDownTime waits for the balancer's node.up event for node and
// returns the down time it carries.
func nodeUpDownTime(t *testing.T, tr *telemetry.Trace, node int) time.Duration {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, ev := range tr.Events() {
			if ev.Layer != "cluster" || ev.Name != "node.up" {
				continue
			}
			attrs := map[string]any{}
			for _, a := range ev.Attrs {
				attrs[a.Key] = a.Value
			}
			if attrs["node"] == node {
				return time.Duration(attrs["down_ns"].(int64))
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no node.up event for node %d", node)
	return 0
}

// TestNoNodesRefusesCleanly: with the whole fleet dead, a client gets
// a refusal (counted), not a hang.
func TestNoNodesRefusesCleanly(t *testing.T) {
	cli, cl := testWorld(t, 2, nil)
	cl.KillNode(0)
	cl.KillNode(1)
	waitNodeState(cl.Balancer(), 0, false, 5*time.Second)
	waitNodeState(cl.Balancer(), 1, false, 5*time.Second)
	addr, port := cl.Addr()
	tcb, err := cli.Connect(addr, port, 5*time.Second)
	if err != nil {
		// The balancer may also refuse at accept; either is clean.
		return
	}
	buf := make([]byte, 8)
	if _, err := tcb.ReadDeadline(buf, time.Now().Add(5*time.Second)); err == nil {
		t.Error("read on a fleet-down connection returned data")
	}
	if got := cl.Balancer().Stats().Refused.Value(); got == 0 {
		t.Error("refusal not counted")
	}
}

// TestBalancerHalfClosePassThrough: the balancer hop propagates a
// one-sided FIN. The client writes a request and half-closes; a node
// that answers only after EOF still gets its full response back
// through the balancer.
func TestBalancerHalfClosePassThrough(t *testing.T) {
	hub := netsim.NewHub()
	defer hub.Close()
	stack := func(last byte) *tcpip.Stack {
		s, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	cli, lb, node := stack(1), stack(2), stack(4)

	// A request/response node: read to EOF, then reply.
	l, err := node.Listen(nodePort, 4)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept(30 * time.Second)
		if err != nil {
			return
		}
		var req []byte
		buf := make([]byte, 4096)
		for {
			n, err := conn.ReadDeadline(buf, time.Now().Add(30*time.Second))
			req = append(req, buf[:n]...)
			if err != nil {
				break
			}
		}
		conn.Write(append([]byte("reply:"), req...))
		conn.Close()
	}()

	// No health endpoint: probing is pushed past the test's lifetime so
	// the node stays in rotation.
	setTiming(t, &probeInterval, time.Hour)
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBalancer(lb, []tcpip.Addr{node.Addr()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	tcb, err := cli.Connect(lb.Addr(), listenPort, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tcb.Write([]byte("request")); err != nil {
		t.Fatal(err)
	}
	if err := tcb.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	var resp []byte
	buf := make([]byte, 64)
	for {
		n, err := tcb.ReadDeadline(buf, time.Now().Add(10*time.Second))
		resp = append(resp, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("response read: %v", err)
		}
	}
	if string(resp) != "reply:request" {
		t.Errorf("response = %q", resp)
	}
	if in, out := b.Stats().BytesIn.Value(), b.Stats().BytesOut.Value(); in != 7 || out != 13 {
		t.Errorf("relayed %d bytes in, %d out; want 7 and 13", in, out)
	}
}

// waitNodeState polls until node i's health verdict equals up, or the
// timeout passes; it reports whether the state was reached.
func waitNodeState(b *Balancer, i int, up bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for b.nodes[i].up.Load() != up {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// TestBalancerCloseEndsSilentRelay: Close returns while a relay's
// backend has vanished without FIN or RST. The relay is up and has
// echoed once; then the wire drops every frame and the node's stack
// closes, so its RSTs never arrive and both relay halves sit in reads
// with no deadline. Close must abort them rather than wait.
func TestBalancerCloseEndsSilentRelay(t *testing.T) {
	const bound = 2 * time.Second
	hub := netsim.NewHub()
	defer hub.Close()
	stack := func(last byte) *tcpip.Stack {
		s, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	cli, lb, node := stack(1), stack(2), stack(4)

	// A one-shot echo node.
	l, err := node.Listen(nodePort, 4)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept(30 * time.Second)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		for {
			n, err := conn.ReadDeadline(buf, time.Now().Add(30*time.Second))
			if err != nil {
				return
			}
			conn.Write(buf[:n])
		}
	}()

	// No health endpoint: probing is pushed past the test's lifetime so
	// the node stays in rotation.
	setTiming(t, &probeInterval, time.Hour)
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBalancer(lb, []tcpip.Addr{node.Addr()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcb, err := cli.Connect(lb.Addr(), listenPort, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tcb.Abort()
	if _, err := tcb.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := tcb.ReadDeadline(buf, time.Now().Add(10*time.Second)); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo through the balancer: %q, %v", buf[:n], err)
	}

	if err := hub.SetFaultPlan(&netsim.FaultPlan{Seed: 1, LossGoodPct: 100}); err != nil {
		t.Fatal(err)
	}
	node.Close()

	done := make(chan struct{})
	start := time.Now()
	go func() {
		b.Close()
		close(done)
	}()
	select {
	case <-done:
		t.Logf("Close returned in %v", time.Since(start))
	case <-time.After(bound):
		t.Fatalf("Balancer.Close still waiting after %v on a relay whose backend vanished", bound)
	}
}
