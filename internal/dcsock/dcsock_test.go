package dcsock

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcpip"
)

func twoHosts(t *testing.T) (*tcpip.Stack, *Env) {
	t.Helper()
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	cli, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	dev, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Close)
	return cli, NewEnv(dev)
}

// TestFig2bEchoServer runs the paper's Fig. 2b code shape verbatim:
//
//	sock_init(); tcp_listen(&sock, PORT, ...);
//	sock_wait_established(&sock, ...); sock_mode(&sock, TCP_MODE_ASCII);
//	while (tcp_tick(&sock)) { sock_wait_input(...);
//	    if (sock_gets(...)) sock_puts(...); }
func TestFig2bEchoServer(t *testing.T) {
	cli, env := twoHosts(t)
	// Bind before the client can connect: tcp_listen must win the race
	// with the SYN or the connect is refused.
	env.SockInit()
	var sock TCPSocket
	if err := env.TcpListen(&sock, 7777); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if st := sock.SockWaitEstablished(5 * time.Second); st != StatusOK {
			t.Errorf("wait_established status %d", st)
			return
		}
		sock.SockMode(ModeASCII)
		for env.TcpTick(&sock) {
			if line, ok := sock.SockGets(256, 2*time.Second); ok {
				sock.SockPuts(line)
			} else {
				return
			}
		}
	}()
	conn, err := cli.Connect(env.Stack().Addr(), 7777, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("echo line one\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := conn.ReadDeadline(buf, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "echo line one\r\n" {
		t.Errorf("echo = %q", buf[:n])
	}
	conn.Close()
	<-done
}

func TestUninitializedEnvRejectsListen(t *testing.T) {
	_, env := twoHosts(t)
	var sock TCPSocket
	if err := env.TcpListen(&sock, 80); err != ErrNotInitialized {
		t.Errorf("TcpListen before SockInit = %v", err)
	}
}

func TestTcpTickLiveness(t *testing.T) {
	cli, env := twoHosts(t)
	env.SockInit()
	if !env.TcpTick(nil) {
		t.Error("TcpTick(nil) false after init")
	}
	var sock TCPSocket
	if err := env.TcpListen(&sock, 2000); err != nil {
		t.Fatal(err)
	}
	if !env.TcpTick(&sock) {
		t.Error("listening socket reported dead")
	}
	conn, err := cli.Connect(env.Stack().Addr(), 2000, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := sock.SockWaitEstablished(5 * time.Second); st != StatusOK {
		t.Fatalf("status %d", st)
	}
	if !env.TcpTick(&sock) {
		t.Error("established socket reported dead")
	}
	conn.Close()
	sock.SockClose()
	deadline := time.Now().Add(5 * time.Second)
	for env.TcpTick(&sock) {
		if time.Now().After(deadline) {
			t.Fatal("socket still alive after both sides closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSockBytesReadyConvention(t *testing.T) {
	cli, env := twoHosts(t)
	env.SockInit()
	var sock TCPSocket
	env.TcpListen(&sock, 2100)
	conn, err := cli.Connect(env.Stack().Addr(), 2100, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := sock.SockWaitEstablished(5 * time.Second); st != StatusOK {
		t.Fatal("not established")
	}
	if n := sock.SockBytesReady(); n != -1 {
		t.Errorf("SockBytesReady empty = %d, want -1 (DC convention)", n)
	}
	conn.Write([]byte("abcde"))
	if st := sock.SockWaitInput(5 * time.Second); st != StatusOK {
		t.Fatalf("wait_input status %d", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sock.SockBytesReady() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("SockBytesReady = %d, want 5", sock.SockBytesReady())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBinaryReadWrite(t *testing.T) {
	cli, env := twoHosts(t)
	env.SockInit()
	var sock TCPSocket
	env.TcpListen(&sock, 2200)
	conn, err := cli.Connect(env.Stack().Addr(), 2200, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sock.SockWaitEstablished(5 * time.Second)
	payload := []byte{0x00, 0xff, 0x0a, 0x0d, 0x41} // binary incl. CR/LF bytes
	conn.Write(payload)
	buf := make([]byte, 16)
	got := 0
	for got < len(payload) {
		n, st := sock.SockRead(buf[got:], 5*time.Second)
		if st != StatusOK {
			t.Fatalf("SockRead status %d", st)
		}
		got += n
	}
	for i := range payload {
		if buf[i] != payload[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, buf[i], payload[i])
		}
	}
	// Write back.
	if n, st := sock.SockWrite(payload); n != len(payload) || st != StatusOK {
		t.Fatalf("SockWrite = (%d, %d)", n, st)
	}
	back := make([]byte, 16)
	n, err := conn.ReadDeadline(back, time.Now().Add(5*time.Second))
	if err != nil || n != len(payload) {
		t.Fatalf("read back: n=%d err=%v", n, err)
	}
}

func TestSockGetsSplitsLines(t *testing.T) {
	cli, env := twoHosts(t)
	env.SockInit()
	var sock TCPSocket
	env.TcpListen(&sock, 2300)
	conn, err := cli.Connect(env.Stack().Addr(), 2300, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sock.SockWaitEstablished(5 * time.Second)
	sock.SockMode(ModeASCII)
	conn.Write([]byte("first\r\nsecond\nthird-no-newline"))
	conn.Close()
	l1, ok := sock.SockGets(256, 2*time.Second)
	if !ok || l1 != "first" {
		t.Errorf("line 1 = %q ok=%v", l1, ok)
	}
	l2, ok := sock.SockGets(256, 2*time.Second)
	if !ok || l2 != "second" {
		t.Errorf("line 2 = %q ok=%v", l2, ok)
	}
	l3, ok := sock.SockGets(256, 2*time.Second)
	if !ok || l3 != "third-no-newline" {
		t.Errorf("line 3 = %q ok=%v", l3, ok)
	}
	if _, ok := sock.SockGets(256, 200*time.Millisecond); ok {
		t.Error("fourth SockGets returned a line on drained socket")
	}
}

func TestSockGetsHonorsMaxLen(t *testing.T) {
	cli, env := twoHosts(t)
	env.SockInit()
	var sock TCPSocket
	env.TcpListen(&sock, 2400)
	conn, err := cli.Connect(env.Stack().Addr(), 2400, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sock.SockWaitEstablished(5 * time.Second)
	sock.SockMode(ModeASCII)
	conn.Write([]byte("0123456789\n"))
	line, ok := sock.SockGets(4, 2*time.Second)
	if !ok || line != "0123" {
		t.Errorf("truncated line = %q ok=%v", line, ok)
	}
}

func TestSockGetsRequiresASCIIMode(t *testing.T) {
	_, env := twoHosts(t)
	env.SockInit()
	var sock TCPSocket
	env.TcpListen(&sock, 2500)
	if _, ok := sock.SockGets(10, 10*time.Millisecond); ok {
		t.Error("SockGets succeeded in binary mode")
	}
}

// fig2aServer is the paper's Fig. 2a BSD echo server, written with
// tcpip's blocking calls in the figure's order: socket, bind and listen
// (Listen), accept, then recv and send until the client closes, then
// close. It listens before returning, so no client can race the bind.
// The returned channel closes when the server has finished.
func fig2aServer(t *testing.T, stack *tcpip.Stack, port uint16) <-chan struct{} {
	lst, err := stack.Listen(port, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer lst.Close()
		conn, err := lst.Accept(5 * time.Second)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 512)
		for {
			n, err := conn.Read(buf)
			if n > 0 {
				if _, werr := conn.Write(buf[:n]); werr != nil {
					t.Errorf("send: %v", werr)
					return
				}
			}
			if err != nil {
				return // EOF: the client closed
			}
		}
	}()
	return done
}

// fig2bServer is the paper's Fig. 2b Dynamic C echo server (see
// TestFig2bEchoServer), bound before it returns.
func fig2bServer(t *testing.T, env *Env, port uint16) <-chan struct{} {
	env.SockInit()
	var sock TCPSocket
	if err := env.TcpListen(&sock, port); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if st := sock.SockWaitEstablished(5 * time.Second); st != StatusOK {
			t.Errorf("wait_established status %d", st)
			return
		}
		sock.SockMode(ModeASCII)
		for env.TcpTick(&sock) {
			line, ok := sock.SockGets(256, 2*time.Second)
			if !ok {
				return
			}
			sock.SockPuts(line)
		}
	}()
	return done
}

// TestE6EchoLineProtocolMatchesBSDBehavior is E6: the Fig. 2a BSD
// echo server and the Fig. 2b Dynamic C one serve one multi-line
// workload, and the client transcripts must be byte-identical (and
// equal to what was sent, since both echo).
func TestE6EchoLineProtocolMatchesBSDBehavior(t *testing.T) {
	// One write per element; the last carries two lines in one segment.
	workload := []string{"alpha\r\n", "beta with spaces\r\n", "gamma-123\r\ndelta\r\n"}
	servers := []struct {
		name  string
		start func(t *testing.T, env *Env) <-chan struct{}
	}{
		{"fig2a", func(t *testing.T, env *Env) <-chan struct{} { return fig2aServer(t, env.Stack(), 7) }},
		{"fig2b", func(t *testing.T, env *Env) <-chan struct{} { return fig2bServer(t, env, 7) }},
	}
	transcripts := make([]string, len(servers))
	for i, srv := range servers {
		t.Run(srv.name, func(t *testing.T) {
			cli, env := twoHosts(t)
			done := srv.start(t, env)
			conn, err := cli.Connect(env.Stack().Addr(), 7, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			buf := make([]byte, 256)
			for _, w := range workload {
				if _, err := conn.Write([]byte(w)); err != nil {
					t.Fatal(err)
				}
				want := len(got) + len(w)
				for len(got) < want {
					n, err := conn.ReadDeadline(buf, time.Now().Add(5*time.Second))
					if err != nil {
						t.Fatalf("read echo of %q: %v", w, err)
					}
					got = append(got, buf[:n]...)
				}
			}
			conn.Close()
			<-done
			transcripts[i] = string(got)
		})
	}
	if sent := strings.Join(workload, ""); transcripts[0] != sent || transcripts[1] != sent {
		t.Errorf("transcripts differ:\n fig2a %q\n fig2b %q\n sent  %q", transcripts[0], transcripts[1], sent)
	}
}

// TestTcpOpenActiveConnection covers the board-initiated direction:
// the device dials out to a workstation service (tcp_open).
func TestTcpOpenActiveConnection(t *testing.T) {
	cli, env := twoHosts(t) // cli = workstation stack, env = board
	l, err := cli.Listen(5555, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept(5 * time.Second)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		n, err := conn.ReadDeadline(buf, time.Now().Add(5*time.Second))
		if err != nil {
			return
		}
		conn.Write(buf[:n])
		conn.Close()
	}()
	env.SockInit()
	var sock TCPSocket
	if err := env.TcpOpen(&sock, cli.Addr(), 5555, 5*time.Second); err != nil {
		t.Fatalf("tcp_open: %v", err)
	}
	if !sock.SockEstablished() {
		t.Fatal("not established after TcpOpen")
	}
	if n, st := sock.SockWrite([]byte("board calling")); n != 13 || st != StatusOK {
		t.Fatalf("write: n=%d st=%d", n, st)
	}
	buf := make([]byte, 64)
	got := 0
	for got < 13 {
		n, st := sock.SockRead(buf[got:], 5*time.Second)
		if st != StatusOK {
			t.Fatalf("read status %d", st)
		}
		got += n
	}
	if string(buf[:13]) != "board calling" {
		t.Errorf("echo = %q", buf[:13])
	}
}

func TestTcpOpenRefused(t *testing.T) {
	cli, env := twoHosts(t)
	env.SockInit()
	var sock TCPSocket
	if err := env.TcpOpen(&sock, cli.Addr(), 9999, 2*time.Second); err == nil {
		t.Error("tcp_open to closed port succeeded")
	}
}

func TestTcpOpenRequiresInit(t *testing.T) {
	cli, env := twoHosts(t)
	var sock TCPSocket
	if err := env.TcpOpen(&sock, cli.Addr(), 9999, time.Second); err != ErrNotInitialized {
		t.Errorf("err = %v", err)
	}
}

func TestStatusCodesOnAbort(t *testing.T) {
	cli, env := twoHosts(t)
	env.SockInit()
	var sock TCPSocket
	env.TcpListen(&sock, 2600)
	conn, err := cli.Connect(env.Stack().Addr(), 2600, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sock.SockWaitEstablished(5 * time.Second)
	conn.Abort() // peer RST
	buf := make([]byte, 8)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, st := sock.SockRead(buf, 500*time.Millisecond)
		if st == StatusReset {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw StatusReset, last status %d", st)
		}
	}
}

// TestWaitEstablishedTimesOutUnconnected: sock_wait_established on a
// tcp_listen socket that no client connects to times out. A listening
// socket is on none of the stack's connection lists; its deadline rides
// the stack's 10 ms timer sweep all the same, so the wait ends no
// earlier than its timeout and no later than two passes after it.
func TestWaitEstablishedTimesOutUnconnected(t *testing.T) {
	_, env := twoHosts(t)
	env.SockInit()
	var sock TCPSocket
	if err := env.TcpListen(&sock, 7777); err != nil {
		t.Fatal(err)
	}
	const timeout, pass = 50 * time.Millisecond, 10 * time.Millisecond
	start := time.Now()
	status := make(chan int, 1)
	go func() { status <- sock.SockWaitEstablished(timeout) }()
	var st int
	select {
	case st = <-status:
	case <-time.After(2 * time.Second):
		t.Fatal("wait_established on an unconnected socket never timed out")
	}
	took := time.Since(start)
	if st != StatusTimedOut {
		t.Fatalf("wait_established on an unconnected socket: status %d, want %d", st, StatusTimedOut)
	}
	if took < timeout || took > timeout+2*pass {
		t.Errorf("wait_established timed out after %v, want %v to %v", took, timeout, timeout+2*pass)
	}
}
