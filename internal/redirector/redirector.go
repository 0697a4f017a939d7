// Package redirector implements the network cryptographic service of
// the case study: a secure redirector that terminates issl-encrypted
// connections and forwards the plaintext to a backend server — the
// job a commercial SSL accelerator box does, "Because SSL forms a
// layer above TCP, it is easily moved from the server to other
// hardware" (§2).
//
// Two implementations mirror the two platforms:
//
//   - UnixServer: the original program structure — listen/accept with
//     a handler per connection (fork in the paper, a goroutine here),
//     an unbounded number of simultaneous connections, Unix-profile
//     issl with RSA key exchange.
//   - EmbeddedServer: the ported structure of Fig. 3 — a fixed set of
//     costatement-driven connection slots plus a driver costatement
//     ticking the TCP stack, each slot doing tcp_listen on the shared
//     port and *becoming* the connection. The slot count is the hard
//     concurrency limit; a fourth client is refused while three are
//     being served.
//
// Setting Config.Secure to false turns either server into a plaintext
// redirector, the baseline for the paper's §2 observation (after
// Goldberg et al.) that SSL costs around an order of magnitude of
// server throughput (experiment E4).
package redirector

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costate"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/dcsock"
	"repro/internal/issl"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// Config parameterizes a redirector of either flavor.
type Config struct {
	// ListenPort is the public (secure) port.
	ListenPort uint16
	// Target/TargetPort locate the backend the plaintext goes to.
	Target     tcpip.Addr
	TargetPort uint16
	// Secure enables the issl layer; false gives the plaintext baseline.
	Secure bool
	// ServerKey is the RSA key (Unix flavor with Secure).
	ServerKey *rsa.PrivateKey
	// PSK is the pre-shared key (Embedded flavor with Secure).
	PSK []byte
	// Slots caps simultaneous connections (Embedded flavor; default 3,
	// the paper's number).
	Slots int
	// MaxInflight caps simultaneous connections on the Unix flavor
	// (admission control): past the bound, new connections are refused
	// immediately — counted in Refused and AdmissionRefused — instead of
	// growing the handler-goroutine population without limit. 0 keeps
	// the original unbounded fork-model behavior.
	MaxInflight int
	// SessionCache enables server-side session resumption (Goldberg et
	// al. session-key caching): returning clients that offer a cached
	// session get the abbreviated handshake. Optional; nil disables
	// resumption, the pre-caching behavior.
	SessionCache *issl.SessionCache
	// TicketKeys enables sealed session tickets: every handshake
	// issues a ticket under the cluster-shared key and a client-offered
	// ticket resumes without any cache entry — the stateless form that
	// lets any instance of a multi-redirector fleet resume any client.
	// Optional; nil keeps cache-only resumption.
	TicketKeys *issl.TicketKeyStore
	// SignWorkers sizes the shared RSA sign/decrypt worker pool for the
	// secure Unix flavor: all connection handshakes funnel their
	// private-key operations through this many workers (queue depth
	// 4×workers; saturation queues gracefully, see issl.SignPool). A
	// reconnect stampede then parallelizes across exactly this many
	// cores instead of serializing wherever the scheduler lands. 0
	// keeps the inline per-connection behavior.
	SignWorkers int
	// BackendAttempts caps backend connect attempts per client
	// connection (default 3). A backend that restarts — or sits behind
	// a flaky hub — gets a second chance before the client is refused.
	BackendAttempts int
	// BackendRetryDelay is the wait after the first failed backend
	// attempt (default 100ms); it doubles per failure.
	BackendRetryDelay time.Duration
	// Log receives service events. Optional.
	Log issl.Logger
	// RandSeed seeds the deterministic PRNG used for session crypto.
	RandSeed uint64
	// Metrics hosts the service counters (see Stats). When nil the
	// server uses a private registry, so Stats() always reads live
	// values. The registry is also handed to the issl layer.
	Metrics *telemetry.Registry
	// Trace receives per-connection events ("redirector" layer) and is
	// handed to the issl layer for handshake phases. Optional.
	Trace *telemetry.Trace
}

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log.Printf(format, args...)
	}
}

// Stats exposes the service counters. The fields are handles into the
// telemetry registry (Config.Metrics, or a private one), updated
// atomically; read with Value().
type Stats struct {
	Accepted         *telemetry.Counter // connections fully established
	Refused          *telemetry.Counter // all refusals: handshake, backend-down, admission
	AdmissionRefused *telemetry.Counter // refusals from the MaxInflight admission bound
	Inflight         *telemetry.Gauge   // connections currently being handled
	BytesForward     *telemetry.Counter // client -> backend plaintext bytes
	BytesBackward    *telemetry.Counter // backend -> client plaintext bytes
	BackendRetries   *telemetry.Counter // backend connect attempts beyond the first
	BackendDown      *telemetry.Counter // clients refused because the backend stayed down
	HalfCloses       *telemetry.Counter // one-directional EOFs propagated via half-close
	DrainedConns     *telemetry.Counter // inflight connections that completed during a graceful drain
}

// newStats resolves the counters. A nil registry gets a private one so
// every handle is live (Stats readers must never see absorbed writes).
func newStats(reg *telemetry.Registry) Stats {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return Stats{
		Accepted:         reg.Counter("redirector.accepted"),
		Refused:          reg.Counter("redirector.refused"),
		AdmissionRefused: reg.Counter("redirector.refused_admission"),
		Inflight:         reg.Gauge("redirector.inflight"),
		BytesForward:     reg.Counter("redirector.bytes_forward"),
		BytesBackward:    reg.Counter("redirector.bytes_backward"),
		BackendRetries:   reg.Counter("redirector.backend_retries"),
		BackendDown:      reg.Counter("redirector.backend_down"),
		HalfCloses:       reg.Counter("redirector.half_closes"),
		DrainedConns:     reg.Counter("redirector.drained_conns"),
	}
}

// Relay copies a<->b until both directions end, then closes both
// ends; the redirector servers and the cluster balancer all relay
// through it. When one direction sees a clean EOF it half-closes its
// destination (TCP shutdown(SHUT_WR) semantics: FIN out, reads still
// open; on a Dynamic C socket, sock_close; on an issl adapter, a
// close_notify), so a client that finishes its request early still
// receives the backend's full response. A destination whose CloseWrite
// is missing or fails is closed instead, and any other error tears the
// destination down. aToB and bToA count the bytes moved each way and
// halfCloses each half-close sent (nil counters are no-ops); the
// per-direction totals are returned.
func Relay(a, b io.ReadWriteCloser, aToB, bToA, halfCloses *telemetry.Counter) (ab, ba uint64) {
	var wg sync.WaitGroup
	copyDir := func(dst io.WriteCloser, src io.Reader, counter *telemetry.Counter, total *uint64) {
		defer wg.Done()
		buf := make([]byte, 4096)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				counter.Add(uint64(n))
				*total += uint64(n)
				if _, werr := dst.Write(buf[:n]); werr != nil {
					dst.Close()
					return
				}
			}
			if err == io.EOF {
				if cw, ok := dst.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
					halfCloses.Inc()
				} else {
					dst.Close()
				}
				return
			}
			if err != nil {
				dst.Close()
				return
			}
		}
	}
	wg.Add(2)
	go copyDir(b, a, aToB, &ab)
	go copyDir(a, b, bToA, &ba)
	wg.Wait()
	a.Close()
	b.Close()
	return ab, ba
}

// service is what both flavors share: the configuration, the counters
// and handle, the one per-connection path.
type service struct {
	cfg   Config
	stats Stats
}

// Stats exposes the live counters.
func (s *service) Stats() *Stats { return &s.stats }

// handle serves one accepted client connection to the end: bind issl
// over client (when Secure), dial the backend from stack, relay until
// both directions end. The flavor supplies only what differs: its
// transport, the profile fields of hs (ServerKey and SignPool, or PSK,
// plus its Rand), the stack it dials from, and the trace key ("conn"
// or "slot") that labels id in events and log lines.
func (s *service) handle(client io.ReadWriteCloser, hs issl.Config, stack *tcpip.Stack, key string, id uint64) {
	if s.cfg.Secure {
		hs.Log, hs.Cache, hs.TicketKeys = s.cfg.Log, s.cfg.SessionCache, s.cfg.TicketKeys
		hs.Metrics, hs.Trace = s.cfg.Metrics, s.cfg.Trace
		sc, err := issl.BindServer(client, hs)
		if err != nil {
			s.cfg.logf("redirector: %s %d: handshake failed: %v", key, id, err)
			s.stats.Refused.Inc()
			s.cfg.Trace.Emit("redirector", "conn.refused", key, id, "reason", "handshake")
			client.Close()
			return
		}
		client = secureConn{sc, client}
	}
	backend, err := s.dialBackend(stack)
	if err != nil {
		s.cfg.logf("redirector: %s %d: backend unreachable, refusing client: %v", key, id, err)
		s.stats.Refused.Inc()
		s.cfg.Trace.Emit("redirector", "conn.refused", key, id, "reason", "backend")
		client.Close()
		return
	}
	s.stats.Accepted.Inc()
	s.cfg.Trace.Emit("redirector", "conn.accept", key, id)
	fwd, bwd := Relay(client, backend, s.stats.BytesForward, s.stats.BytesBackward, s.stats.HalfCloses)
	s.cfg.Trace.Emit("redirector", "conn.done", key, id, "bytes_fwd", fwd, "bytes_bwd", bwd)
}

// dialBackend connects to the backend from stack with capped-doubling
// retries. Counter semantics: each retry bumps BackendRetries;
// exhausting all attempts bumps BackendDown once (the caller then
// refuses the client gracefully — a secure client gets a clean
// close_notify, not a RST).
func (s *service) dialBackend(stack *tcpip.Stack) (*tcpip.TCB, error) {
	attempts := s.cfg.BackendAttempts
	if attempts <= 0 {
		attempts = 3
	}
	delay := s.cfg.BackendRetryDelay
	if delay <= 0 {
		delay = 100 * time.Millisecond
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			s.stats.BackendRetries.Inc()
			s.cfg.Trace.Emit("redirector", "backend.retry", "try", i+1, "delay_ms", delay.Milliseconds())
			time.Sleep(delay)
			delay *= 2
		}
		var tcb *tcpip.TCB
		if tcb, err = stack.Connect(s.cfg.Target, s.cfg.TargetPort, 5*time.Second); err == nil {
			return tcb, nil
		}
	}
	s.stats.BackendDown.Inc()
	s.cfg.Trace.Emit("redirector", "backend.down", "attempts", attempts)
	return nil, err
}

// secureConn is the client side of a secure relay: closing it closes
// the issl layer and then the transport beneath. CloseWrite is the
// promoted issl one, so a half-close travels as a close_notify while
// our read side (and the transport) stays open for the response.
type secureConn struct {
	*issl.Conn
	transport io.Closer
}

func (c secureConn) Close() error {
	c.Conn.Close()
	return c.transport.Close()
}

// --- Unix flavor ----------------------------------------------------------------

// UnixServer is the original workstation service: accept loop plus a
// per-connection handler process (goroutine standing in for fork).
type UnixServer struct {
	service
	stack    *tcpip.Stack
	lst      *tcpip.Listener
	signPool *issl.SignPool // RSA workers every handshake shares; nil runs inline
	once     sync.Once

	mu      sync.Mutex
	closed  bool                    // Shutdown has begun; a late Serve returns at once
	active  map[*tcpip.TCB]struct{} // connections a handler owns
	serving sync.WaitGroup          // Serve, while it runs
	wg      sync.WaitGroup          // handler goroutines
}

// ErrBadConfig reports an unusable redirector configuration.
var ErrBadConfig = errors.New("redirector: bad configuration")

// NewUnixServer binds the listening socket.
func NewUnixServer(stack *tcpip.Stack, cfg Config) (*UnixServer, error) {
	if cfg.Secure && cfg.ServerKey == nil {
		return nil, fmt.Errorf("%w: secure Unix redirector needs ServerKey", ErrBadConfig)
	}
	lst, err := stack.Listen(cfg.ListenPort, 16)
	if err != nil {
		return nil, err
	}
	s := &UnixServer{service: service{cfg: cfg, stats: newStats(cfg.Metrics)},
		stack: stack, lst: lst, active: map[*tcpip.TCB]struct{}{}}
	if cfg.Secure && cfg.SignWorkers > 0 {
		s.signPool = issl.NewSignPool(cfg.SignWorkers, 4*cfg.SignWorkers, cfg.Metrics)
	}
	return s, nil
}

// Serve accepts and dispatches until the listener closes — by Shutdown
// or by the stack going away. It blocks; run it on its own goroutine
// (the original blocked its main process the same way).
func (s *UnixServer) Serve() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.serving.Add(1)
	s.mu.Unlock()
	defer s.serving.Done()
	seq := uint64(0)
	for {
		conn, err := s.lst.Accept(0)
		if err != nil {
			return
		}
		seq++
		// Admission control: the fork model's unbounded handler growth is
		// the first thing a capacity test breaks. Past MaxInflight the
		// connection is refused with a clean FIN (not a RST), so the
		// client sees a graceful refusal it can back off from. Admission
		// is decided only on this accept goroutine, so the bound is never
		// overshot; a racing handler exit can at worst refuse one
		// connection that would just have fit.
		if max := s.cfg.MaxInflight; max > 0 && s.stats.Inflight.Value() >= int64(max) {
			s.stats.Refused.Inc()
			s.stats.AdmissionRefused.Inc()
			s.cfg.Trace.Emit("redirector", "conn.refused", "conn", seq, "reason", "admission")
			conn.Close()
			continue
		}
		s.stats.Inflight.Add(1)
		s.mu.Lock()
		s.active[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func(id uint64, tcb *tcpip.TCB) { // the fork(2) analogue
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.active, tcb)
				s.mu.Unlock()
				s.stats.Inflight.Add(-1)
			}()
			s.handle(tcb, issl.Config{
				Profile:   issl.ProfileUnix,
				ServerKey: s.cfg.ServerKey,
				SignPool:  s.signPool,
				Rand:      prng.NewXorshift(s.cfg.RandSeed ^ id),
			}, s.stack, "conn", id)
		}(seq, conn)
	}
}

// Close is the hard stop: Shutdown with no drain.
func (s *UnixServer) Close() { s.Shutdown(0) }

// Shutdown closes the listener and waits for Serve to return, so no
// handler starts after that; then it drains: inflight connections get
// up to drain to finish on their own — each one that does increments
// the drained_conns counter — before the stragglers are aborted. It
// returns once every handler has finished, so the half-close relay can
// never race the teardown (the pre-drain Close aborted mid-relay and
// the chaos harness caught byte-short transfers on otherwise healthy
// shutdowns).
func (s *UnixServer) Shutdown(drain time.Duration) {
	s.once.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.lst.Close()
		s.serving.Wait()
		idle := make(chan struct{})
		go func() { s.wg.Wait(); close(idle) }()
		if drain > 0 {
			start := s.stats.Inflight.Value()
			timer := time.NewTimer(drain)
			select {
			case <-idle:
			case <-timer.C:
			}
			timer.Stop()
			if done := start - s.stats.Inflight.Value(); done > 0 {
				s.stats.DrainedConns.Add(uint64(done))
				s.cfg.Trace.Emit("redirector", "shutdown.drained", "conns", done)
			}
			if rem := s.stats.Inflight.Value(); rem > 0 {
				s.cfg.Trace.Emit("redirector", "shutdown.aborted", "conns", rem)
			}
		}
		s.mu.Lock()
		for tcb := range s.active {
			tcb.Abort()
		}
		s.mu.Unlock()
		<-idle
		// After the last handler: release the sign-pool workers.
		s.signPool.Close()
	})
}

// --- Embedded flavor -----------------------------------------------------------

// EmbeddedServer is the ported service with the Fig. 3 structure.
type EmbeddedServer struct {
	service
	env     *dcsock.Env
	stop    atomic.Bool
	started atomic.Bool
	runDone chan struct{}
	wg      sync.WaitGroup // in-flight slot helper goroutines
	connSeq atomic.Uint64  // per-connection PRNG diversifier
}

// NewEmbeddedServer prepares the service over a Dynamic C environment.
func NewEmbeddedServer(env *dcsock.Env, cfg Config) (*EmbeddedServer, error) {
	if cfg.Secure && len(cfg.PSK) == 0 {
		return nil, fmt.Errorf("%w: secure embedded redirector needs PSK (the port dropped RSA)", ErrBadConfig)
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 3 // the paper's maximum: "at most three requests"
	}
	return &EmbeddedServer{service: service{cfg: cfg, stats: newStats(cfg.Metrics)},
		env: env, runDone: make(chan struct{})}, nil
}

// Run executes the Fig. 3 main loop: Slots connection-handler
// costatements plus one TCP-driver costatement, scheduled
// cooperatively, until Close is called. It blocks.
//
// Fidelity note: the handshake and data relay run on helper goroutines
// so a slot that is mid-transfer does not stall its siblings — the
// Dynamic C original achieved the same interleaving with non-blocking
// socket calls inside each costatement. The structural property the
// paper cares about is preserved exactly: Slots listening sockets
// bound by tcp_listen, so connection Slots+1 is refused while all
// slots are busy.
func (s *EmbeddedServer) Run() {
	s.started.Store(true)
	defer close(s.runDone)
	s.env.SockInit()
	sched := costate.New()
	for i := 0; i < s.cfg.Slots; i++ {
		slot := i
		sched.Spawn(fmt.Sprintf("conn-slot-%d", slot), func(co *costate.Co) {
			s.slotBody(co, slot)
		})
	}
	// The driver: "one [process] to drive the TCP stack".
	sched.Spawn("tcp-driver", func(co *costate.Co) {
		for !s.stop.Load() {
			s.env.TcpTick(nil)
			// Pace the cooperative loop so idle slots poll at ~1ms
			// instead of spinning a host core (the 30 MHz board paced
			// itself by simply being slow).
			time.Sleep(time.Millisecond)
			co.Yield()
		}
	})
	sched.Run()
}

func (s *EmbeddedServer) slotBody(co *costate.Co, slot int) {
	for !s.stop.Load() {
		var sock dcsock.TCPSocket
		if err := s.env.TcpListen(&sock, s.cfg.ListenPort); err != nil {
			s.cfg.logf("redirector: slot %d: tcp_listen: %v", slot, err)
			return
		}
		// waitfor(sock_established(&socket))
		co.WaitFor(func() bool {
			return s.stop.Load() || sock.SockEstablished()
		})
		if s.stop.Load() {
			sock.SockAbort()
			return
		}
		done := make(chan struct{})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer close(done)
			s.handle(dcTransport{&sock}, issl.Config{
				Profile: issl.ProfileEmbedded,
				PSK:     s.cfg.PSK,
				// Diversify per connection, not just per slot: with a
				// session cache, a slot re-running the same PRNG would
				// reissue the same session IDs.
				Rand: prng.NewXorshift(s.cfg.RandSeed ^ uint64(slot+1)<<32 ^ s.connSeq.Add(1)),
			}, s.env.Stack(), "slot", uint64(slot))
		}()
		co.WaitFor(func() bool {
			select {
			case <-done:
				return true
			default:
				return s.stop.Load()
			}
		})
		if s.stop.Load() {
			sock.SockAbort()
			<-done
			return
		}
	}
}

// Close asks the scheduler loop to wind down and waits for it — and
// for every in-flight slot helper goroutine — to finish, so a soak
// harness can assert the goroutine count returns to baseline after
// Close returns. (The old Close only flipped the stop flag; handlers
// mid-transfer outlived it.)
func (s *EmbeddedServer) Close() {
	s.stop.Store(true)
	if s.started.Load() {
		<-s.runDone
	}
	s.wg.Wait()
}

// dcTransport adapts a Dynamic C socket to io.ReadWriteCloser for the
// issl layer and the relay.
type dcTransport struct{ s *dcsock.TCPSocket }

func (d dcTransport) Read(p []byte) (int, error) {
	n, status := d.s.SockRead(p, time.Hour)
	switch status {
	case dcsock.StatusOK:
		return n, nil
	case dcsock.StatusClosed:
		return n, io.EOF
	default:
		return n, fmt.Errorf("redirector: sock_read status %d", status)
	}
}

func (d dcTransport) Write(p []byte) (int, error) {
	n, status := d.s.SockWrite(p)
	if status != dcsock.StatusOK {
		return n, fmt.Errorf("redirector: sock_write status %d", status)
	}
	return n, nil
}

func (d dcTransport) Close() error {
	d.s.SockClose()
	return nil
}

// CloseWrite maps to sock_close, which (like the TCB beneath it) sends
// FIN but keeps draining received data.
func (d dcTransport) CloseWrite() error {
	d.s.SockClose()
	return nil
}
