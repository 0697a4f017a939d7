package redirector

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/dcsock"
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
		k, err := rsa.GenerateKey(prng.NewXorshift(0xd00d), 512)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		testKey = k
	})
	return testKey
}

// world builds: client stack (.1), redirector stack (.2), backend
// stack (.3) with an echo server on backendPort.
func world(t *testing.T) (cli, mid, back *tcpip.Stack) {
	t.Helper()
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	mk := func(last byte) *tcpip.Stack {
		s, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	return mk(1), mk(2), mk(3)
}

const backendPort = 9000

// connectRetry dials until the server's listener is actually up: a SYN
// arriving before the slot reaches tcp_listen is refused, so a bounded
// retry loop replaces the old fixed "let slots start" sleep (which was
// both slower and flaky under load).
func connectRetry(t *testing.T, cli *tcpip.Stack, addr tcpip.Addr, port uint16) *tcpip.TCB {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tcb, err := cli.Connect(addr, port, 2*time.Second)
		if err == nil {
			return tcb
		}
		if time.Now().After(deadline) {
			t.Fatalf("connect to %s:%d never succeeded: %v", addr, port, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startEchoBackend serves echo connections until the stack closes.
func startEchoBackend(t *testing.T, s *tcpip.Stack) {
	t.Helper()
	l, err := s.Listen(backendPort, 16)
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
				buf := make([]byte, 4096)
				for {
					n, err := c.ReadDeadline(buf, time.Now().Add(30*time.Second))
					if n > 0 {
						c.Write(buf[:n])
					}
					if err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()
}

func TestUnixSecureRedirect(t *testing.T) {
	cli, mid, back := world(t)
	startEchoBackend(t, back)
	srv, err := NewUnixServer(mid, Config{
		ListenPort: 443, Target: back.Addr(), TargetPort: backendPort,
		Secure: true, ServerKey: rsaKey(t), RandSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	tcb, err := cli.Connect(mid.Addr(), 443, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := issl.BindClient(tcb, issl.Config{Profile: issl.ProfileUnix, Rand: prng.NewXorshift(9)})
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	msg := []byte("through the accelerator")
	if _, err := sc.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	var got []byte
	for len(got) < len(msg) {
		n, err := sc.Read(buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q", got)
	}
	if srv.Stats().Accepted.Value() != 1 {
		t.Errorf("accepted = %d", srv.Stats().Accepted.Value())
	}
}

func TestUnixPlainRedirect(t *testing.T) {
	cli, mid, back := world(t)
	startEchoBackend(t, back)
	srv, err := NewUnixServer(mid, Config{
		ListenPort: 8080, Target: back.Addr(), TargetPort: backendPort,
		Secure: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	tcb, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tcb.Write([]byte("plaintext pass-through"))
	buf := make([]byte, 64)
	n, err := tcb.ReadDeadline(buf, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "plaintext pass-through" {
		t.Errorf("got %q", buf[:n])
	}
}

func TestUnixManyConcurrentConnections(t *testing.T) {
	cli, mid, back := world(t)
	startEchoBackend(t, back)
	srv, err := NewUnixServer(mid, Config{
		ListenPort: 443, Target: back.Addr(), TargetPort: backendPort,
		Secure: true, ServerKey: rsaKey(t), RandSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	const n = 8 // beyond the embedded flavor's 3-slot limit
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(id uint64) {
			tcb, err := cli.Connect(mid.Addr(), 443, 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			sc, err := issl.BindClient(tcb, issl.Config{Profile: issl.ProfileUnix, Rand: prng.NewXorshift(100 + id)})
			if err != nil {
				errs <- err
				return
			}
			msg := []byte{byte(id), 1, 2, 3}
			sc.Write(msg)
			buf := make([]byte, 16)
			got := 0
			for got < len(msg) {
				r, err := sc.Read(buf[got:])
				if err != nil {
					errs <- err
					return
				}
				got += r
			}
			if !bytes.Equal(buf[:got], msg) {
				errs <- io.ErrUnexpectedEOF
				return
			}
			errs <- nil
		}(uint64(i))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	if acc := srv.Stats().Accepted.Value(); acc != n {
		t.Errorf("accepted = %d, want %d (fork model has no slot limit)", acc, n)
	}
}

func TestEmbeddedSecureRedirect(t *testing.T) {
	cli, mid, back := world(t)
	startEchoBackend(t, back)
	psk := []byte("shared-secret-on-the-board")
	srv, err := NewEmbeddedServer(dcsock.NewEnv(mid), Config{
		ListenPort: 443, Target: back.Addr(), TargetPort: backendPort,
		Secure: true, PSK: psk, RandSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Close()

	tcb := connectRetry(t, cli, mid.Addr(), 443)
	sc, err := issl.BindClient(tcb, issl.Config{Profile: issl.ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(77)})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	msg := []byte("embedded path")
	sc.Write(msg)
	buf := make([]byte, 64)
	var got []byte
	for len(got) < len(msg) {
		n, err := sc.Read(buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q", got)
	}
}

// TestE5ConnectionLimit is experiment E5: with the Fig. 3 structure and
// 3 slots, three clients are served simultaneously and a fourth is
// refused until a slot frees up.
func TestE5ConnectionLimit(t *testing.T) {
	cli, mid, back := world(t)
	startEchoBackend(t, back)
	psk := []byte("slots")
	srv, err := NewEmbeddedServer(dcsock.NewEnv(mid), Config{
		ListenPort: 443, Target: back.Addr(), TargetPort: backendPort,
		Secure: true, PSK: psk, Slots: 3, RandSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Close()

	// Occupy all three slots with live secure sessions. Slots reach
	// tcp_listen asynchronously, so each dial retries until its slot is
	// up instead of sleeping a fixed grace period.
	var conns []*issl.Conn
	var tcbs []*tcpip.TCB
	for i := 0; i < 3; i++ {
		tcb := connectRetry(t, cli, mid.Addr(), 443)
		sc, err := issl.BindClient(tcb, issl.Config{Profile: issl.ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(uint64(200 + i))})
		if err != nil {
			t.Fatalf("handshake %d: %v", i, err)
		}
		// Prove the slot is actually serving.
		sc.Write([]byte("x"))
		buf := make([]byte, 8)
		if _, err := sc.Read(buf); err != nil {
			t.Fatalf("slot %d echo: %v", i, err)
		}
		conns = append(conns, sc)
		tcbs = append(tcbs, tcb)
	}

	// Fourth connection: no listening socket remains; the stack
	// refuses the SYN.
	if _, err := cli.Connect(mid.Addr(), 443, 2*time.Second); err == nil {
		t.Fatal("fourth simultaneous connection succeeded; Fig. 3 limit not enforced")
	}

	// Release one slot; the slot re-listens; a new client succeeds.
	conns[0].Close()
	tcbs[0].Close()
	var late *tcpip.TCB
	deadline := time.Now().Add(10 * time.Second)
	for {
		late, err = cli.Connect(mid.Addr(), 443, 2*time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
	}
	sc, err := issl.BindClient(late, issl.Config{Profile: issl.ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(999)})
	if err != nil {
		t.Fatalf("late handshake: %v", err)
	}
	sc.Write([]byte("finally"))
	buf := make([]byte, 16)
	if _, err := sc.Read(buf); err != nil {
		t.Fatalf("late echo: %v", err)
	}
}

func TestEmbeddedConfigValidation(t *testing.T) {
	_, mid, _ := world(t)
	if _, err := NewEmbeddedServer(dcsock.NewEnv(mid), Config{Secure: true}); err == nil {
		t.Error("secure embedded server without PSK accepted")
	}
	srv, err := NewEmbeddedServer(dcsock.NewEnv(mid), Config{Secure: false})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.Slots != 3 {
		t.Errorf("default slots = %d, want 3", srv.cfg.Slots)
	}
}

func TestUnixConfigValidation(t *testing.T) {
	_, mid, _ := world(t)
	if _, err := NewUnixServer(mid, Config{ListenPort: 1, Secure: true}); err == nil {
		t.Error("secure unix server without key accepted")
	}
}

func TestBackendUnreachableCountsRefused(t *testing.T) {
	cli, mid, _ := world(t)
	// No backend started. One attempt: retry behavior has its own test,
	// and each attempt against a silent address costs a full SYN timeout.
	srv, err := NewUnixServer(mid, Config{
		ListenPort: 8080, Target: tcpip.IP4(10, 0, 0, 3), TargetPort: backendPort,
		Secure: false, BackendAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	tcb, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	tcb.ReadDeadline(buf, time.Now().Add(3*time.Second)) // will EOF/reset when backend dial fails
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Refused.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Stats().Refused.Value() != 1 {
		t.Errorf("refused = %d, want 1", srv.Stats().Refused.Value())
	}
	if srv.Stats().BackendDown.Value() != 1 {
		t.Errorf("backend down = %d, want 1", srv.Stats().BackendDown.Value())
	}
}

// TestBackendReconnectWithBackoff brings the backend up only after the
// redirector's first connect attempt has failed: the retry loop must
// land the client on the late-arriving backend instead of refusing.
func TestBackendReconnectWithBackoff(t *testing.T) {
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	mk := func(last byte) *tcpip.Stack {
		s, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	cli, mid := mk(1), mk(2)
	backAddr := tcpip.IP4(10, 0, 0, 3)

	srv, err := NewUnixServer(mid, Config{
		ListenPort: 8080, Target: backAddr, TargetPort: backendPort,
		Secure: false, BackendAttempts: 4, BackendRetryDelay: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	// The backend stack does not exist yet; bring it up after the first
	// attempt has had time to fail (SYNs into the void time out at 5s —
	// so start it while attempt 1 is still in flight; the connect's own
	// retransmissions then reach the fresh stack).
	go func() {
		time.Sleep(500 * time.Millisecond)
		back := mk(3)
		startEchoBackend(t, back)
	}()

	tcb, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tcb.Write([]byte("late backend"))
	buf := make([]byte, 64)
	n, err := tcb.ReadDeadline(buf, time.Now().Add(15*time.Second))
	if err != nil {
		t.Fatalf("read through redirector: %v", err)
	}
	if string(buf[:n]) != "late backend" {
		t.Errorf("got %q", buf[:n])
	}
	if srv.Stats().Accepted.Value() != 1 {
		t.Errorf("accepted = %d, want 1", srv.Stats().Accepted.Value())
	}
	if srv.Stats().BackendDown.Value() != 0 {
		t.Errorf("backend down = %d, want 0", srv.Stats().BackendDown.Value())
	}
}

// TestHalfClosePassThrough checks shutdown(SHUT_WR) propagation: the
// client sends its whole request and FINs, and the response must still
// come back through the redirector over the half-open connection.
func TestHalfClosePassThrough(t *testing.T) {
	cli, mid, back := world(t)

	// A request/response backend: read to EOF, then reply.
	l, err := back.Listen(backendPort, 4)
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

	srv, err := NewUnixServer(mid, Config{
		ListenPort: 8080, Target: back.Addr(), TargetPort: backendPort,
		Secure: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	tcb, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tcb.Write([]byte("request")); err != nil {
		t.Fatal(err)
	}
	if err := tcb.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// A relay without half-close would tear down both directions on the client's
	// EOF and this read would see a dead connection.
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
	if hc := srv.Stats().HalfCloses.Value(); hc == 0 {
		t.Error("no half-closes counted; EOF was propagated by full teardown")
	}
}

// TestSecureHalfClosePassThrough runs the same request/EOF/response
// pattern through the issl layer: the client's close_notify must reach
// the backend as EOF without killing the response path.
func TestSecureHalfClosePassThrough(t *testing.T) {
	cli, mid, back := world(t)

	l, err := back.Listen(backendPort, 4)
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

	srv, err := NewUnixServer(mid, Config{
		ListenPort: 443, Target: back.Addr(), TargetPort: backendPort,
		Secure: true, ServerKey: rsaKey(t), RandSeed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	tcb, err := cli.Connect(mid.Addr(), 443, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := issl.BindClient(tcb, issl.Config{Profile: issl.ProfileUnix, Rand: prng.NewXorshift(31)})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if _, err := sc.Write([]byte("request")); err != nil {
		t.Fatal(err)
	}
	if err := sc.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	var resp []byte
	buf := make([]byte, 64)
	sc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		n, err := sc.Read(buf)
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
}

// TestUnixSessionResumption wires a SessionCache into the Unix server:
// a returning client offering its session must land the abbreviated
// handshake end to end through the redirector.
func TestUnixSessionResumption(t *testing.T) {
	cli, mid, back := world(t)
	startEchoBackend(t, back)
	cache := issl.NewSessionCache(16)
	srv, err := NewUnixServer(mid, Config{
		ListenPort: 443, Target: back.Addr(), TargetPort: backendPort,
		Secure: true, ServerKey: rsaKey(t), RandSeed: 11, SessionCache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	dial := func(resume *issl.Session) *issl.Conn {
		tcb, err := cli.Connect(mid.Addr(), 443, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := issl.BindClient(tcb, issl.Config{
			Profile: issl.ProfileUnix, Rand: prng.NewXorshift(41), Resume: resume})
		if err != nil {
			t.Fatalf("handshake: %v", err)
		}
		t.Cleanup(func() { sc.Close(); tcb.Close() })
		return sc
	}
	first := dial(nil)
	if first.Resumed() {
		t.Fatal("first handshake resumed")
	}
	sess := first.Session()
	if sess == nil {
		t.Fatal("server cache wired but no session issued")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d", cache.Len())
	}
	second := dial(sess)
	if !second.Resumed() {
		t.Error("returning client did not get the abbreviated handshake")
	}
	second.Write([]byte("resumed through redirector"))
	buf := make([]byte, 64)
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got []byte
	for len(got) < 26 {
		n, err := second.Read(buf)
		if err != nil {
			t.Fatalf("echo read: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "resumed through redirector" {
		t.Errorf("echo = %q", got)
	}
}

// TestUnixAdmissionControl fills the server to MaxInflight and checks
// the next connection is refused gracefully (clean EOF, not a hang),
// counted in refused_admission, and that capacity freed by a closing
// connection is reusable.
func TestUnixAdmissionControl(t *testing.T) {
	cli, mid, back := world(t)
	startEchoBackend(t, back)
	srv, err := NewUnixServer(mid, Config{
		ListenPort: 8080, Target: back.Addr(), TargetPort: backendPort,
		Secure: false, MaxInflight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	// Occupy both admission units with live, verified connections.
	var held []*tcpip.TCB
	for i := 0; i < 2; i++ {
		tcb, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		tcb.Write([]byte{byte(i)})
		buf := make([]byte, 4)
		if _, err := tcb.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != nil {
			t.Fatalf("conn %d echo: %v", i, err)
		}
		held = append(held, tcb)
	}
	if got := srv.Stats().Inflight.Value(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}

	// Third connection: TCP-accepted then immediately FIN'd by admission
	// control; a read sees clean EOF.
	over, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
	if err != nil {
		t.Fatalf("over-limit connect: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := over.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != io.EOF {
		t.Errorf("over-limit read err = %v, want EOF", err)
	}
	if got := srv.Stats().AdmissionRefused.Value(); got != 1 {
		t.Errorf("refused_admission = %d, want 1", got)
	}
	if got := srv.Stats().Refused.Value(); got != 1 {
		t.Errorf("refused = %d, want 1", got)
	}

	// Free one unit; a new client must get through.
	held[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Inflight.Value() >= 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	late, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
	if err != nil {
		t.Fatalf("post-release connect: %v", err)
	}
	late.Write([]byte("ok"))
	if _, err := late.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != nil {
		t.Errorf("post-release echo: %v", err)
	}
}

// TestUnixAdmissionReopensAfterDrain is the full-drain companion to
// TestUnixAdmissionControl: with MaxInflight=1 the server alternates
// saturated/empty, and admission must reopen completely every time the
// single inflight unit drains — refusal is load shedding, not a latch.
func TestUnixAdmissionReopensAfterDrain(t *testing.T) {
	cli, mid, back := world(t)
	startEchoBackend(t, back)
	srv, err := NewUnixServer(mid, Config{
		ListenPort: 8080, Target: back.Addr(), TargetPort: backendPort,
		Secure: false, MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	const rounds = 3
	for round := 0; round < rounds; round++ {
		// Saturate the single unit with a verified live connection.
		held, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
		if err != nil {
			t.Fatalf("round %d connect: %v", round, err)
		}
		held.Write([]byte("x"))
		buf := make([]byte, 4)
		if _, err := held.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != nil {
			t.Fatalf("round %d echo: %v", round, err)
		}

		// While saturated, the next arrival is shed with a clean FIN.
		over, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
		if err != nil {
			t.Fatalf("round %d over-limit connect: %v", round, err)
		}
		if _, err := over.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != io.EOF {
			t.Errorf("round %d over-limit read err = %v, want EOF", round, err)
		}
		over.Close()
		if got := srv.Stats().AdmissionRefused.Value(); got != uint64(round+1) {
			t.Errorf("round %d refused_admission = %d, want %d", round, got, round+1)
		}

		// Drain fully and wait for the server to notice (bounded poll,
		// no fixed sleep: the proxy tears down asynchronously).
		held.Close()
		deadline := time.Now().Add(5 * time.Second)
		for srv.Stats().Inflight.Value() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: inflight stuck at %d after drain",
					round, srv.Stats().Inflight.Value())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// After the last drain the door must be fully open again.
	final, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
	if err != nil {
		t.Fatalf("post-drain connect: %v", err)
	}
	final.Write([]byte("again"))
	buf := make([]byte, 8)
	if _, err := final.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != nil {
		t.Errorf("post-drain echo: %v", err)
	}
	if got := srv.Stats().AdmissionRefused.Value(); got != rounds {
		t.Errorf("final refused_admission = %d, want %d (reopen must not refuse)", got, rounds)
	}
}

// TestUnixGracefulDrain: Shutdown with a drain budget must let an
// inflight connection finish on its own terms — and count it in
// drained_conns — instead of aborting it the way Close(0) does.
func TestUnixGracefulDrain(t *testing.T) {
	cli, mid, back := world(t)
	startEchoBackend(t, back)
	srv, err := NewUnixServer(mid, Config{
		ListenPort: 8080, Target: back.Addr(), TargetPort: backendPort,
		Secure: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	// A live connection that stays open into the shutdown.
	tcb, err := cli.Connect(mid.Addr(), 8080, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tcb.Write([]byte("hold"))
	buf := make([]byte, 8)
	if _, err := tcb.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { srv.Shutdown(10 * time.Second); close(done) }()
	// The listener closes first: new arrivals are refused while the
	// existing connection keeps working.
	time.Sleep(20 * time.Millisecond)
	tcb.Write([]byte("mid-drain"))
	echo := make([]byte, 16)
	got := 0
	for got < 9 {
		n, err := tcb.ReadDeadline(echo[got:], time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatalf("echo during drain: %v", err)
		}
		got += n
	}
	// Client finishes voluntarily; Shutdown must notice and return well
	// before its budget.
	tcb.Close()
	select {
	case <-done:
	case <-time.After(8 * time.Second):
		t.Fatal("Shutdown did not return after the last connection drained")
	}
	if v := srv.Stats().DrainedConns.Value(); v != 1 {
		t.Errorf("drained_conns = %d, want 1", v)
	}
}

// TestEmbeddedCloseWaitsForHandlers is the goroutine-accounting fix:
// Close must not return while serveSlot helper goroutines are still
// running, so soaks can assert a zero-leak baseline.
func TestEmbeddedCloseWaitsForHandlers(t *testing.T) {
	cli, mid, back := world(t)
	startEchoBackend(t, back)
	srv, err := NewEmbeddedServer(dcsock.NewEnv(mid), Config{
		ListenPort: 443, Target: back.Addr(), TargetPort: backendPort,
		Secure: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	runReturned := make(chan struct{})
	go func() { srv.Run(); close(runReturned) }()

	// Park a connection mid-transfer so a handler goroutine is live
	// (retry-dial replaces the fixed slot-startup sleep).
	tcb := connectRetry(t, cli, mid.Addr(), 443)
	tcb.Write([]byte("hold"))
	buf := make([]byte, 8)
	if _, err := tcb.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	// Close returning implies the scheduler loop AND all helpers exited.
	select {
	case <-runReturned:
	case <-time.After(2 * time.Second):
		t.Error("Run still live after Close returned")
	}
	// Idempotent.
	srv.Close()
}

// TestEmbeddedCloseWithoutRun: Close on a server whose Run was never
// started must not hang waiting for a scheduler that never existed.
func TestEmbeddedCloseWithoutRun(t *testing.T) {
	_, mid, _ := world(t)
	srv, err := NewEmbeddedServer(dcsock.NewEnv(mid), Config{Secure: false})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung without Run")
	}
}

// TestUnixCloseWithoutServe: Shutdown waits for Serve only if Serve
// ran; on a server that never served it must not hang, and a Serve
// that starts after Close returns at once.
func TestUnixCloseWithoutServe(t *testing.T) {
	_, mid, _ := world(t)
	srv, err := NewUnixServer(mid, Config{ListenPort: 8080})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Close(); srv.Serve(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close or a late Serve hung")
	}
}

// TestUnixServeReturnsWhenStackCloses: the accept loop blocks on the
// listener, so a stack that goes away under it ends Serve on its own —
// no Shutdown needed, no loop spinning on a dead listener.
func TestUnixServeReturnsWhenStackCloses(t *testing.T) {
	_, mid, _ := world(t)
	srv, err := NewUnixServer(mid, Config{ListenPort: 8080})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	returned := make(chan struct{})
	go func() { srv.Serve(); close(returned) }()
	mid.Close()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("Serve still running 1s after its stack closed")
	}
}

// TestFlavorParity drives the shared connection handler through both
// flavors. A client speaking the other profile is refused at the
// handshake; a backend host with no listener answers the dial with a
// RST, so the client is refused as backend-down. Counters and trace
// reasons must be the same on either flavor.
func TestFlavorParity(t *testing.T) {
	psk := []byte("parity pre-shared key")
	unixCli := issl.Config{Profile: issl.ProfileUnix}
	embeddedCli := issl.Config{Profile: issl.ProfileEmbedded, PSK: psk}
	flavors := []struct {
		name         string
		start        func(t *testing.T, mid *tcpip.Stack, cfg Config) *Stats
		own, foreign issl.Config // client configs: the server's profile and the other one
	}{
		{"unix", func(t *testing.T, mid *tcpip.Stack, cfg Config) *Stats {
			cfg.ServerKey = rsaKey(t)
			srv, err := NewUnixServer(mid, cfg)
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve()
			t.Cleanup(srv.Close)
			return srv.Stats()
		}, unixCli, embeddedCli},
		{"embedded", func(t *testing.T, mid *tcpip.Stack, cfg Config) *Stats {
			cfg.PSK = psk
			srv, err := NewEmbeddedServer(dcsock.NewEnv(mid), cfg)
			if err != nil {
				t.Fatal(err)
			}
			go srv.Run()
			t.Cleanup(srv.Close)
			return srv.Stats()
		}, embeddedCli, unixCli},
	}
	for _, fl := range flavors {
		for _, tc := range []struct {
			reason      string
			backendDown uint64
		}{{"handshake", 0}, {"backend", 1}} {
			t.Run(fl.name+"/"+tc.reason, func(t *testing.T) {
				cli, mid, back := world(t) // no backend listener in either case
				tr := telemetry.NewTrace(256)
				st := fl.start(t, mid, Config{
					ListenPort: 443, Target: back.Addr(), TargetPort: backendPort,
					Secure: true, BackendAttempts: 1, RandSeed: 9, Trace: tr,
				})
				ccfg := fl.own
				if tc.reason == "handshake" {
					ccfg = fl.foreign
				}
				ccfg.Rand = prng.NewXorshift(31)
				ccfg.HandshakeTimeout = 5 * time.Second
				tcb := connectRetry(t, cli, mid.Addr(), 443)
				defer tcb.Close()
				sc, err := issl.BindClient(tcb, ccfg)
				if tc.reason == "handshake" && err == nil {
					t.Fatal("client of the other profile completed a handshake")
				}
				if tc.reason == "backend" {
					if err != nil {
						t.Fatalf("handshake: %v", err)
					}
					// The refusal arrives as a clean close_notify.
					if _, err := sc.Read(make([]byte, 8)); err != io.EOF {
						t.Errorf("read after backend refusal = %v, want io.EOF", err)
					}
				}
				deadline := time.Now().Add(5 * time.Second)
				for st.Refused.Value() == 0 && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if v := st.Refused.Value(); v != 1 {
					t.Errorf("refused = %d, want 1", v)
				}
				if v := st.BackendDown.Value(); v != tc.backendDown {
					t.Errorf("backend_down = %d, want %d", v, tc.backendDown)
				}
				if v := st.Accepted.Value(); v != 0 {
					t.Errorf("accepted = %d, want 0", v)
				}
				var reasons []any
				for _, ev := range tr.Events() {
					if ev.Layer == "redirector" && ev.Name == "conn.refused" {
						for _, a := range ev.Attrs {
							if a.Key == "reason" {
								reasons = append(reasons, a.Value)
							}
						}
					}
				}
				if len(reasons) != 1 || reasons[0] != tc.reason {
					t.Errorf("conn.refused reasons = %v, want [%s]", reasons, tc.reason)
				}
			})
		}
	}
}
