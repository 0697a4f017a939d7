package cluster

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/tcpip"
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

// testWorld builds the fabric: a client stack, a backend echo stack,
// and a secure fleet behind the balancer with chaos-friendly health
// timing (fast probes, short backoff).
func testWorld(t *testing.T, nodes int, pol Policy) (*tcpip.Stack, *Cluster) {
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

	cl, err := New(hub, Config{
		Nodes:          nodes,
		Target:         back.Addr(),
		TargetPort:     backendPort,
		Secure:         true,
		ServerKey:      rsaKey(t),
		TicketMaterial: []byte("fleet ticket material"),
		Policy:         pol,
		ForwardTimeout: 500 * time.Millisecond,
		Health: HealthConfig{
			ProbeInterval:    20 * time.Millisecond,
			ProbeTimeout:     150 * time.Millisecond,
			FailThreshold:    2,
			RiseThreshold:    2,
			ReinstateBackoff: 100 * time.Millisecond,
		},
		RandSeed: 0xC1A5,
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
	if !cl.Balancer().WaitNodeState(victim, false, 5*time.Second) {
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

// TestKillDuringDetectionWindowFailsOver: connections arriving after
// the kill but before the health checker notices must fail over via
// the forward-connect path, not error out.
func TestKillDuringDetectionWindowFailsOver(t *testing.T) {
	cli, cl := testWorld(t, 3, nil)
	cl.KillNode(1)
	// No WaitNodeState: dial immediately, racing the probes.
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
// but only after RiseThreshold probes AND the reinstatement backoff,
// and it must then take traffic again.
func TestRestartReinstatesAfterBackoff(t *testing.T) {
	cli, cl := testWorld(t, 2, nil)
	cl.KillNode(0)
	if !cl.Balancer().WaitNodeState(0, false, 5*time.Second) {
		t.Fatal("kill not detected")
	}
	downAt := time.Now()
	if err := cl.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if !cl.Balancer().WaitNodeState(0, true, 5*time.Second) {
		t.Fatal("restarted node never reinstated")
	}
	// Backoff gate: reinstatement must not predate downAt+backoff (the
	// probes were passing well before it).
	if since := time.Since(downAt); since < 100*time.Millisecond {
		t.Errorf("reinstated after only %v; backoff gate leaked", since)
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

// TestLeastInflightSpreadsLoad: with held-open connections, the least
// policy must put successive connections on distinct instances.
func TestLeastInflightSpreadsLoad(t *testing.T) {
	cli, cl := testWorld(t, 3, LeastInflight{})
	var conns []*issl.Conn
	var trs []io.ReadWriteCloser
	defer func() {
		for i := range conns {
			conns[i].Close()
			trs[i].Close()
		}
	}()
	for i := 0; i < 3; i++ {
		d := dialer(cli, cl, 500+uint64(i))
		conn, tr, err := d.DialWithRetry()
		if err != nil {
			t.Fatal(err)
		}
		echo(t, conn, []byte{byte(i)})
		conns = append(conns, conn)
		trs = append(trs, tr)
	}
	// Three held connections, three instances: one each.
	for i := 0; i < cl.Nodes(); i++ {
		if got := cl.NodeRegistry(i).Counter("redirector.accepted").Value(); got != 1 {
			t.Errorf("instance %d accepted = %d, want 1 under least-inflight", i, got)
		}
	}
}

// TestNoNodesRefusesCleanly: with the whole fleet dead, a client gets
// a refusal (counted), not a hang.
func TestNoNodesRefusesCleanly(t *testing.T) {
	cli, cl := testWorld(t, 2, nil)
	cl.KillNode(0)
	cl.KillNode(1)
	cl.Balancer().WaitNodeState(0, false, 5*time.Second)
	cl.Balancer().WaitNodeState(1, false, 5*time.Second)
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
	const port = 4443
	l, err := node.Listen(port, 4)
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
	cfg, err := Config{
		ListenPort: port,
		NodePort:   port,
		Health:     HealthConfig{ProbeInterval: time.Hour},
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBalancer(lb, []tcpip.Addr{node.Addr()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	tcb, err := cli.Connect(lb.Addr(), port, 5*time.Second)
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
