// Package dcsock reproduces the Dynamic C TCP/IP API of the RMC2000
// development kit (Fig. 2b of the paper): sock_init, tcp_listen,
// tcp_tick, sock_established, sock_wait_established, sock_mode,
// sock_gets/sock_puts and friends. Where BSD sockets give a factory
// (accept returns new descriptors), here "the socket bound to the port
// also handles the request, so each connection is required to have a
// corresponding call to tcp_listen" (§5.3) — which is exactly the
// property that forced the paper's authors to restructure their server
// into a fixed set of costatement-driven connection slots.
//
// One fidelity note: on the real board, tcp_tick() *is* the stack —
// nothing moves unless the application keeps calling it. Our simulated
// stack runs that same loop (drain the NIC, demux, tick the timers) on
// one goroutine of its own, so TcpTick here is a cooperative poll
// point: it yields the processor and reports liveness. The call sites
// keep the exact shape of Dynamic C code.
//
// Every timeout here is a deadline on the socket's TCB, and the stack's
// 10 ms timer sweep is what ends it, as tcp_tick ends it on the board:
// a call times out at most one pass (10 ms) after its timeout.
package dcsock

import (
	"bytes"
	"errors"
	"runtime"
	"time"

	"repro/internal/tcpip"
)

// Mode selects ASCII (line-oriented) or binary socket semantics,
// mirroring sock_mode(&s, TCP_MODE_ASCII) / TCP_MODE_BINARY.
type Mode int

// Socket transfer modes.
const (
	ModeBinary Mode = iota
	ModeASCII
)

// Status codes reported through the *int status out-parameters that
// the Dynamic C API threads through its blocking calls.
const (
	StatusOK        = 0
	StatusClosed    = -1
	StatusTimedOut  = -2
	StatusReset     = -3
	StatusNotInited = -4
)

// ErrNotInitialized is returned when the environment is used before SockInit.
var ErrNotInitialized = errors.New("dcsock: sock_init not called")

// Env is one board's Dynamic C networking environment.
type Env struct {
	stack  *tcpip.Stack
	inited bool
}

// NewEnv wraps a stack. Nothing works until SockInit, just like the
// real library.
func NewEnv(stack *tcpip.Stack) *Env { return &Env{stack: stack} }

// SockInit initializes the TCP/IP subsystem (sock_init()).
func (e *Env) SockInit() { e.inited = true }

// Stack exposes the underlying stack for diagnostics.
func (e *Env) Stack() *tcpip.Stack { return e.stack }

// TCPSocket mirrors the Dynamic C `tcp_Socket` structure: a single
// object that is first a listener, then the connection itself.
type TCPSocket struct {
	env  *Env
	tcb  *tcpip.TCB
	mode Mode
	// lineBuf accumulates partial lines in ASCII mode.
	lineBuf []byte
}

// TcpListen binds the socket to a local port in passive mode
// (tcp_listen(&s, port, 0, 0, NULL, 0)). The socket itself becomes
// the connection when a peer arrives.
func (e *Env) TcpListen(s *TCPSocket, port uint16) error {
	if !e.inited {
		return ErrNotInitialized
	}
	tcb, err := e.stack.ListenOne(port)
	if err != nil {
		return err
	}
	s.env = e
	s.tcb = tcb
	s.mode = ModeBinary
	s.lineBuf = nil
	return nil
}

// TcpOpen performs an active open (tcp_open equivalent).
func (e *Env) TcpOpen(s *TCPSocket, dst tcpip.Addr, port uint16, timeout time.Duration) error {
	if !e.inited {
		return ErrNotInitialized
	}
	tcb, err := e.stack.Connect(dst, port, timeout)
	if err != nil {
		return err
	}
	s.env = e
	s.tcb = tcb
	s.mode = ModeBinary
	s.lineBuf = nil
	return nil
}

// TcpTick drives the TCP machinery and reports whether the socket is
// still alive (tcp_tick(&s)); TcpTick(nil) just drives the stack.
// In the simulation the stack is self-driving, so this is a
// cooperative yield plus a liveness poll — call sites keep the
// while(tcp_tick(&sock)) shape of the original code.
func (e *Env) TcpTick(s *TCPSocket) bool {
	runtime.Gosched()
	if s == nil || s.tcb == nil {
		return e.inited
	}
	return s.tcb.Alive()
}

// SockEstablished reports whether the handshake has completed
// (sock_established(&s)).
func (s *TCPSocket) SockEstablished() bool {
	return s.tcb != nil && s.tcb.Established()
}

// SockWaitEstablished blocks until the connection is up, the timeout
// expires, or the socket dies (sock_wait_established macro). The
// returned status uses the Status* codes.
func (s *TCPSocket) SockWaitEstablished(timeout time.Duration) (status int) {
	if s.tcb == nil {
		return StatusNotInited
	}
	if err := s.tcb.WaitEstablished(timeout); err != nil {
		return statusOf(err)
	}
	return StatusOK
}

// SockMode selects ASCII or binary mode (sock_mode()).
func (s *TCPSocket) SockMode(m Mode) { s.mode = m }

// SockBytesReady returns the count of readable buffered bytes
// (sock_bytesready), or -1 if nothing is ready — matching the Dynamic
// C convention of returning -1 for "no data".
func (s *TCPSocket) SockBytesReady() int {
	if s.tcb == nil {
		return -1
	}
	n := s.tcb.Avail() + len(s.lineBuf)
	if n == 0 {
		return -1
	}
	return n
}

// SockWaitInput blocks until input is available or the socket closes
// (sock_wait_input macro).
func (s *TCPSocket) SockWaitInput(timeout time.Duration) (status int) {
	if s.tcb == nil {
		return StatusNotInited
	}
	deadline := time.Now().Add(timeout)
	for {
		if s.SockBytesReady() > 0 {
			return StatusOK
		}
		// Peek: a zero-byte read situation — poll with short reads.
		buf := make([]byte, 1)
		n, err := s.tcb.ReadDeadline(buf, deadline)
		if n > 0 {
			s.lineBuf = append(s.lineBuf, buf[:n]...)
			return StatusOK
		}
		if err != nil {
			return statusOf(err)
		}
	}
}

// SockGets reads one newline-terminated line in ASCII mode
// (sock_gets). The newline is stripped. ok is false when no complete
// line is available before the timeout or the socket closed.
func (s *TCPSocket) SockGets(maxLen int, timeout time.Duration) (line string, ok bool) {
	if s.tcb == nil || s.mode != ModeASCII {
		return "", false
	}
	deadline := time.Now().Add(timeout)
	for {
		if i := bytes.IndexByte(s.lineBuf, '\n'); i >= 0 {
			raw := s.lineBuf[:i]
			s.lineBuf = append([]byte(nil), s.lineBuf[i+1:]...)
			raw = bytes.TrimSuffix(raw, []byte{'\r'})
			if len(raw) > maxLen {
				raw = raw[:maxLen]
			}
			return string(raw), true
		}
		buf := make([]byte, 512)
		n, err := s.tcb.ReadDeadline(buf, deadline)
		if n > 0 {
			s.lineBuf = append(s.lineBuf, buf[:n]...)
			continue
		}
		if err != nil {
			// Connection ended: surface a final unterminated line if any.
			if len(s.lineBuf) > 0 {
				raw := s.lineBuf
				s.lineBuf = nil
				if len(raw) > maxLen {
					raw = raw[:maxLen]
				}
				return string(raw), true
			}
			return "", false
		}
	}
}

// SockPuts writes a line followed by CRLF in ASCII mode, or the raw
// bytes in binary mode (sock_puts).
func (s *TCPSocket) SockPuts(line string) error {
	if s.tcb == nil {
		return ErrNotInitialized
	}
	data := []byte(line)
	if s.mode == ModeASCII {
		data = append(data, '\r', '\n')
	}
	_, err := s.tcb.Write(data)
	return err
}

// SockRead reads up to len(buf) bytes in binary mode (sock_fastread
// semantics: returns what is buffered, blocking for at least 1 byte).
func (s *TCPSocket) SockRead(buf []byte, timeout time.Duration) (int, int) {
	if s.tcb == nil {
		return 0, StatusNotInited
	}
	if len(s.lineBuf) > 0 {
		n := copy(buf, s.lineBuf)
		s.lineBuf = append([]byte(nil), s.lineBuf[n:]...)
		return n, StatusOK
	}
	n, err := s.tcb.ReadDeadline(buf, time.Now().Add(timeout))
	if err != nil {
		return n, statusOf(err)
	}
	return n, StatusOK
}

// SockWrite writes buf in binary mode (sock_write).
func (s *TCPSocket) SockWrite(buf []byte) (int, int) {
	if s.tcb == nil {
		return 0, StatusNotInited
	}
	n, err := s.tcb.Write(buf)
	if err != nil {
		return n, statusOf(err)
	}
	return n, StatusOK
}

// SockClose closes the connection gracefully (sock_close).
func (s *TCPSocket) SockClose() {
	if s.tcb != nil {
		s.tcb.Close()
	}
}

// SockAbort resets the connection (sock_abort).
func (s *TCPSocket) SockAbort() {
	if s.tcb != nil {
		s.tcb.Abort()
	}
}

func statusOf(err error) int {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, tcpip.ErrTimeout):
		return StatusTimedOut
	case errors.Is(err, tcpip.ErrConnReset):
		return StatusReset
	default:
		return StatusClosed
	}
}
