package tcpip

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// Stack is one host's TCP/IP instance, bound to a netsim port. One
// goroutine runs it, as tcp_tick ran the board's stack: it demuxes
// ARP/ICMP/TCP as frames arrive and drives TCP retransmission and
// state timeouts every 10 ms. All exported methods are safe for
// concurrent use.
type Stack struct {
	mu   sync.Mutex
	port *netsim.Port
	ip   Addr
	mac  netsim.MAC

	arpCache   map[Addr]netsim.MAC
	arpPending map[Addr][][]byte

	tcbs      map[tcpKey]*TCB
	tcbPorts  map[uint16]int // live tcbs entries per local port; see addTCBLocked
	listeners map[uint16]*Listener
	dcListen  map[uint16][]*TCB // Dynamic-C-style one-shot listening TCBs
	nextPort  uint16
	isn       *prng.Xorshift

	pingMu   sync.Mutex
	pingWait map[uint16]chan struct{}
	pingSeq  uint16

	closed  chan struct{}
	closing sync.Once

	// Telemetry handles, resolved once at construction (nil-safe), so
	// the segment paths never race on a registry swap.
	metrics stackMetrics
	trace   *telemetry.Trace
}

// stackMetrics are the stack's TCP counters and RTT histogram.
type stackMetrics struct {
	segsSent      *telemetry.Counter
	segsRcvd      *telemetry.Counter
	retransmits   *telemetry.Counter
	checksumDrops *telemetry.Counter
	rttUs         *telemetry.Histogram
}

func newStackMetrics(reg *telemetry.Registry) stackMetrics {
	return stackMetrics{
		segsSent:      reg.Counter("tcp.segs_sent"),
		segsRcvd:      reg.Counter("tcp.segs_rcvd"),
		retransmits:   reg.Counter("tcp.retransmits"),
		checksumDrops: reg.Counter("tcp.checksum_drops"),
		rttUs:         reg.Histogram("tcp.rtt_us"),
	}
}

// ErrStackClosed is returned by operations on a closed stack.
var ErrStackClosed = errors.New("tcpip: stack closed")

// ErrPortInUse is returned when binding an already-bound port.
var ErrPortInUse = errors.New("tcpip: port in use")

// NewStack attaches a new host to the hub with the given IP. The MAC
// is derived from the IP (locally administered). The stack's telemetry
// is inert; use NewStackWithTelemetry to observe it.
func NewStack(hub *netsim.Hub, ip Addr) (*Stack, error) {
	return NewStackWithTelemetry(hub, ip, nil, nil)
}

// NewStackWithTelemetry is NewStack with the stack's counters placed on
// reg and its retransmission/RTT events emitted to trace. Counters are
// resolved once here, so there is no registry swap to race with; either
// argument may be nil (nil registry: counters are no-ops).
func NewStackWithTelemetry(hub *netsim.Hub, ip Addr, reg *telemetry.Registry, trace *telemetry.Trace) (*Stack, error) {
	s, err := newStack(hub, ip, reg, trace)
	if err != nil {
		return nil, err
	}
	go s.loop()
	return s, nil
}

// newStack builds and attaches a stack without starting its loop.
func newStack(hub *netsim.Hub, ip Addr, reg *telemetry.Registry, trace *telemetry.Trace) (*Stack, error) {
	mac := netsim.MAC{0x02, 0x00, ip[0], ip[1], ip[2], ip[3]}
	port, err := hub.Attach(mac)
	if err != nil {
		return nil, fmt.Errorf("tcpip: attach: %w", err)
	}
	s := &Stack{
		port:       port,
		ip:         ip,
		mac:        mac,
		arpCache:   map[Addr]netsim.MAC{},
		arpPending: map[Addr][][]byte{},
		tcbs:       map[tcpKey]*TCB{},
		tcbPorts:   map[uint16]int{},
		listeners:  map[uint16]*Listener{},
		dcListen:   map[uint16][]*TCB{},
		nextPort:   49152,
		isn:        prng.NewXorshift(uint64(ip[0])<<24 | uint64(ip[1])<<16 | uint64(ip[2])<<8 | uint64(ip[3]) | 1),
		pingWait:   map[uint16]chan struct{}{},
		closed:     make(chan struct{}),
		metrics:    newStackMetrics(reg),
		trace:      trace,
	}
	return s, nil
}

// Addr returns the stack's IP address.
func (s *Stack) Addr() Addr { return s.ip }

// MAC returns the stack's hardware address on the hub — what a chaos
// harness hands to netsim.Hub.PartitionPort to unplug this host.
func (s *Stack) MAC() netsim.MAC { return s.mac }

// Close shuts the stack down, resetting every connection.
func (s *Stack) Close() {
	s.closing.Do(func() {
		close(s.closed)
		s.mu.Lock()
		tcbs := make([]*TCB, 0, len(s.tcbs))
		for _, t := range s.tcbs {
			tcbs = append(tcbs, t)
		}
		for _, ls := range s.dcListen {
			tcbs = append(tcbs, ls...)
		}
		listeners := make([]*Listener, 0, len(s.listeners))
		for _, l := range s.listeners {
			listeners = append(listeners, l)
		}
		s.mu.Unlock()
		for _, t := range tcbs {
			t.abort(ErrStackClosed)
		}
		for _, l := range listeners {
			l.Close()
		}
		// Leave the fabric: detach the netsim port so the MAC (and with
		// it the IP) is free for a replacement host — a restarted node
		// re-attaches at the same address.
		s.port.Close()
	})
}

// loop is the stack's one goroutine. When the port is ready it serves
// the pending batch (serveBatch). Every 10 ms it ticks each TCB's
// timers. A port closed under a live stack (its hub closed) stops the
// demux; the timers run until Close.
func (s *Stack) loop() {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	ready := s.port.Ready()
	// Both lists are reused: the loop must not allocate at steady state.
	// owed is the loop's own, so the segment path takes no extra lock.
	var scratch, owed []*TCB
	for {
		select {
		case <-s.closed:
			return
		case <-ready:
			var err error
			if owed, err = s.serveBatch(owed); err != nil {
				ready = nil
			}
		case now := <-tick.C:
			s.mu.Lock()
			scratch = scratch[:0]
			for _, t := range s.tcbs {
				scratch = append(scratch, t)
			}
			s.mu.Unlock()
			for _, t := range scratch {
				t.tick(now)
			}
		}
	}
}

// serveBatch drains every frame pending on the port and demuxes each in
// place; every frame handed to handleFrameView is a view into the drain
// slab, valid until the next Drain, so the handlers copy only what they
// keep (TCP receive-buffer bytes, ARP cache entries). Then it flushes
// the ACKs the batch's in-order data earned: one pure ACK per TCB that
// no segment sent meanwhile has acknowledged for it. owed is scratch,
// returned emptied for reuse; the error is the Drain's.
func (s *Stack) serveBatch(owed []*TCB) ([]*TCB, error) {
	frames, err := s.port.Drain()
	for _, f := range frames {
		if t := s.handleFrameView(f); t != nil {
			owed = append(owed, t)
		}
	}
	for _, t := range owed {
		t.flushACK()
	}
	clear(owed)
	return owed[:0], err
}

// handleFrameView demuxes one received frame by ethertype and IP
// protocol without decoding headers into structs: IPv4 and TCP headers
// are read through validated views over the drain slab, so the payload
// travels from the wire to the TCP receive buffer with no intermediate
// copy. It returns the TCB the frame left owing an ACK, or nil.
func (s *Stack) handleFrameView(f netsim.EthFrame) *TCB {
	switch f.EtherType() {
	case netsim.EtherTypeARP:
		s.mu.Lock()
		s.handleARP(f.Payload())
		s.mu.Unlock()
	case netsim.EtherTypeIPv4:
		ip, err := ParseIPv4Frame(f.Payload())
		if err != nil || ip.Dst() != s.ip {
			return nil
		}
		switch ip.Proto() {
		case ProtoICMP:
			s.handleICMP(ip.Src(), ip.Payload())
		case ProtoTCP:
			return s.handleTCPView(ip.Src(), ip.Payload())
		}
	}
	return nil
}

// addTCBLocked registers t in the connection table under key, which
// must be free, and counts its local port. Every s.tcbs insertion goes
// through here and every removal through removeTCBLocked, so tcbPorts
// always holds, per local port, the number of s.tcbs entries using it.
// Called with s.mu held.
func (s *Stack) addTCBLocked(key tcpKey, t *TCB) {
	s.tcbs[key] = t
	s.tcbPorts[key.localPort]++
}

// removeTCBLocked unregisters t from key, if t still owns it. Called
// with s.mu held.
func (s *Stack) removeTCBLocked(key tcpKey, t *TCB) {
	if s.tcbs[key] != t {
		return
	}
	delete(s.tcbs, key)
	if n := s.tcbPorts[key.localPort] - 1; n > 0 {
		s.tcbPorts[key.localPort] = n
	} else {
		delete(s.tcbPorts, key.localPort)
	}
}

// ephemeralPort allocates a port for outgoing connections: the next
// port in 49152..65535, cycling, that no TCB or listener holds. Each
// candidate costs two map lookups, whatever the number of live (or
// TIME_WAIT) connections. Called with s.mu held.
func (s *Stack) ephemeralPort() uint16 {
	for i := 0; i < 16384; i++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 49152
		}
		if _, taken := s.listeners[p]; taken {
			continue
		}
		if s.tcbPorts[p] == 0 {
			return p
		}
	}
	return 0
}

// --- ICMP ----------------------------------------------------------------

const (
	icmpEchoReply   = 0
	icmpEchoRequest = 8
)

func (s *Stack) handleICMP(src Addr, b []byte) {
	if len(b) < 8 || checksum(b) != 0 {
		return
	}
	switch b[0] {
	case icmpEchoRequest:
		reply := append([]byte(nil), b...)
		reply[0] = icmpEchoReply
		put16(reply[2:], 0)
		put16(reply[2:], checksum(reply))
		s.mu.Lock()
		s.sendIP(src, ProtoICMP, reply)
		s.mu.Unlock()
	case icmpEchoReply:
		id := be16(b[4:])
		s.pingMu.Lock()
		if ch, ok := s.pingWait[id]; ok {
			close(ch)
			delete(s.pingWait, id)
		}
		s.pingMu.Unlock()
	}
}

// Ping sends an ICMP echo request and waits for the reply.
func (s *Stack) Ping(dst Addr, timeout time.Duration) error {
	s.pingMu.Lock()
	s.pingSeq++
	id := s.pingSeq
	ch := make(chan struct{})
	s.pingWait[id] = ch
	s.pingMu.Unlock()

	req := make([]byte, 16)
	req[0] = icmpEchoRequest
	put16(req[4:], id)
	put16(req[6:], 1)
	copy(req[8:], "rmc2000!")
	put16(req[2:], checksum(req))

	deadline := time.After(timeout)
	// Retransmit the request a few times; ARP may eat the first one.
	for {
		s.mu.Lock()
		s.sendIP(dst, ProtoICMP, req)
		s.mu.Unlock()
		select {
		case <-ch:
			return nil
		case <-deadline:
			s.pingMu.Lock()
			delete(s.pingWait, id)
			s.pingMu.Unlock()
			return fmt.Errorf("tcpip: ping %s: timeout after %v", dst, timeout)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
