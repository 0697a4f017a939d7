package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/issl"
	"repro/internal/tcpip"
)

// echoServer is a secure echo service over one tcpip.Stack. Its
// session cache survives Reset; its live connections do not.
type echoServer struct {
	stack *tcpip.Stack
	cache *issl.SessionCache
	psk   []byte
	lst   *tcpip.Listener

	seed    atomic.Uint64
	stopped atomic.Bool
	wg      sync.WaitGroup

	mu   sync.Mutex
	live map[*tcpip.TCB]struct{}

	accepted atomic.Uint64 // successful secure binds
	resumed  atomic.Uint64 // binds that were abbreviated resumptions
}

// connIdleLimit bounds a server-side echo read: a connection whose
// client vanished (aborted mid-partition, rebooted) is reaped instead
// of pinning a goroutine until the harness closes.
const connIdleLimit = 15 * time.Second

// newEchoServer starts the service on port. The PSK is the embedded
// profile's pre-shared master secret; seed feeds each connection's
// deterministic PRNG.
func newEchoServer(stack *tcpip.Stack, port uint16, psk []byte, seed uint64) (*echoServer, error) {
	lst, err := stack.Listen(port, 8)
	if err != nil {
		return nil, err
	}
	s := &echoServer{
		stack: stack,
		cache: issl.NewSessionCache(16),
		psk:   append([]byte(nil), psk...),
		lst:   lst,
		live:  map[*tcpip.TCB]struct{}{},
	}
	s.seed.Store(seed)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Accepted returns (total successful binds, abbreviated resumptions).
func (s *echoServer) Accepted() (total, resumed uint64) {
	return s.accepted.Load(), s.resumed.Load()
}

func (s *echoServer) acceptLoop() {
	defer s.wg.Done()
	for !s.stopped.Load() {
		tcb, err := s.lst.Accept(500 * time.Millisecond)
		if err != nil {
			continue // timeout or listener closed; the loop guard decides
		}
		s.mu.Lock()
		s.live[tcb] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func(tcb *tcpip.TCB) {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.live, tcb)
				s.mu.Unlock()
				tcb.Close()
			}()
			s.serve(tcb)
		}(tcb)
	}
}

func (s *echoServer) serve(tcb *tcpip.TCB) {
	cfg := issl.Config{
		Profile:          issl.ProfileEmbedded,
		PSK:              s.psk,
		Rand:             prng.NewXorshift(s.seed.Add(1)),
		Cache:            s.cache,
		HandshakeTimeout: 10 * time.Second,
	}
	conn, err := issl.BindServer(tcb, cfg)
	if err != nil {
		return
	}
	s.accepted.Add(1)
	if conn.Resumed() {
		s.resumed.Add(1)
	}
	buf := make([]byte, 4096)
	for {
		conn.SetReadDeadline(time.Now().Add(connIdleLimit))
		n, err := conn.Read(buf)
		if n > 0 {
			if _, werr := conn.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// Reset models the watchdog rebooting the board: every live connection
// is aborted (its state lived in ordinary RAM) while the session cache
// — the paper's `protected` storage, preserved across watchdog resets
// — is left intact. The listener keeps running, as the rebooted
// service would come straight back up.
func (s *echoServer) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for tcb := range s.live {
		tcb.Abort()
	}
}

// Close stops the service and waits for its goroutines.
func (s *echoServer) Close() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	s.lst.Close()
	s.Reset()
	s.wg.Wait()
}
