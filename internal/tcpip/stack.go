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

// Stack is one host's TCP/IP instance, bound to a netsim port. It runs
// a receive goroutine demultiplexing ARP/ICMP/UDP/TCP and a timer
// goroutine driving TCP retransmission. All exported methods are safe
// for concurrent use.
type Stack struct {
	mu   sync.Mutex
	port *netsim.Port
	ip   Addr
	mac  netsim.MAC

	arpCache   map[Addr]netsim.MAC
	arpPending map[Addr][][]byte

	udpConns  map[uint16]*UDPConn
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
	mac := netsim.MAC{0x02, 0x00, ip[0], ip[1], ip[2], ip[3]}
	port, err := hub.AttachRing(mac)
	if err != nil {
		return nil, fmt.Errorf("tcpip: attach: %w", err)
	}
	s := &Stack{
		port:       port,
		ip:         ip,
		mac:        mac,
		arpCache:   map[Addr]netsim.MAC{},
		arpPending: map[Addr][][]byte{},
		udpConns:   map[uint16]*UDPConn{},
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
	go s.recvLoop()
	go s.timerLoop()
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
		udps := make([]*UDPConn, 0, len(s.udpConns))
		for _, u := range s.udpConns {
			udps = append(udps, u)
		}
		s.mu.Unlock()
		for _, t := range tcbs {
			t.abort(ErrStackClosed)
		}
		for _, l := range listeners {
			l.Close()
		}
		for _, u := range udps {
			u.Close()
		}
		// Leave the fabric: detach the netsim port so the MAC (and with
		// it the IP) is free for a replacement host — a restarted node
		// re-attaches at the same address.
		s.port.Close()
	})
}

// recvLoop drains the port's receive ring one batch per hub-lock
// acquisition and demuxes each frame in place. Every frame handed to
// handleFrameView is a view into the drain slab, valid until the next
// DrainFrames call — the handlers copy only what they keep (TCP
// receive-buffer bytes, UDP datagrams, ARP cache entries).
func (s *Stack) recvLoop() {
	for {
		frames, err := s.port.DrainFrames(s.closed)
		if err != nil {
			return
		}
		for _, f := range frames {
			s.handleFrameView(f)
		}
	}
}

// handleFrameView demuxes one received frame by ethertype and IP
// protocol without decoding headers into structs: IPv4 and TCP headers
// are read through validated views over the drain slab, so the payload
// travels from the wire to the TCP receive buffer with no intermediate
// copy.
func (s *Stack) handleFrameView(f netsim.EthFrame) {
	switch f.EtherType() {
	case netsim.EtherTypeARP:
		s.mu.Lock()
		s.handleARP(f.Payload())
		s.mu.Unlock()
	case netsim.EtherTypeIPv4:
		ip, err := ParseIPv4Frame(f.Payload())
		if err != nil || ip.Dst() != s.ip {
			return
		}
		switch ip.Proto() {
		case ProtoICMP:
			s.handleICMP(ip.Src(), ip.Payload())
		case ProtoUDP:
			s.handleUDP(ip.Src(), ip.Payload())
		case ProtoTCP:
			s.handleTCPView(ip.Src(), ip.Payload())
		}
	}
}

// timerLoop drives TCP retransmission and state timeouts.
func (s *Stack) timerLoop() {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var scratch []*TCB // reused across ticks: the loop must not allocate at steady state
	for {
		select {
		case <-s.closed:
			return
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
// port in 49152..65535, cycling, that no TCB, listener or UDP conn
// holds. Each candidate costs three map lookups, whatever the number
// of live (or TIME_WAIT) connections. Called with s.mu held.
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
		if _, taken := s.udpConns[p]; taken {
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

// --- UDP -----------------------------------------------------------------

// UDPDatagram is one received datagram with its source.
type UDPDatagram struct {
	Src     Addr
	SrcPort uint16
	Data    []byte
}

// UDPConn is a bound UDP endpoint.
type UDPConn struct {
	stack *Stack
	port  uint16
	rx    chan UDPDatagram
	once  sync.Once
}

// ErrPortInUse is returned when binding an already-bound port.
var ErrPortInUse = errors.New("tcpip: port in use")

// ListenUDP binds a UDP port. Port 0 picks an ephemeral port.
func (s *Stack) ListenUDP(port uint16) (*UDPConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if port == 0 {
		port = s.ephemeralPort()
	}
	if _, ok := s.udpConns[port]; ok {
		return nil, fmt.Errorf("%w: udp/%d", ErrPortInUse, port)
	}
	u := &UDPConn{stack: s, port: port, rx: make(chan UDPDatagram, 64)}
	s.udpConns[port] = u
	return u, nil
}

// Port returns the bound local port.
func (u *UDPConn) Port() uint16 { return u.port }

// SendTo transmits a datagram.
func (u *UDPConn) SendTo(dst Addr, dstPort uint16, data []byte) error {
	if len(data)+8 > MTU-ipHeaderLen {
		return fmt.Errorf("tcpip: UDP payload %d exceeds MTU", len(data))
	}
	seg := make([]byte, 8+len(data))
	put16(seg[0:], u.port)
	put16(seg[2:], dstPort)
	put16(seg[4:], uint16(len(seg)))
	copy(seg[8:], data)
	put16(seg[6:], pseudoChecksum(ProtoUDP, u.stack.ip, dst, seg))
	u.stack.mu.Lock()
	defer u.stack.mu.Unlock()
	u.stack.sendIP(dst, ProtoUDP, seg)
	return nil
}

// Recv returns the receive channel; closed when the conn closes.
func (u *UDPConn) Recv() <-chan UDPDatagram { return u.rx }

// RecvTimeout waits up to d for one datagram.
func (u *UDPConn) RecvTimeout(d time.Duration) (UDPDatagram, error) {
	select {
	case dg, ok := <-u.rx:
		if !ok {
			return UDPDatagram{}, ErrStackClosed
		}
		return dg, nil
	case <-time.After(d):
		return UDPDatagram{}, errors.New("tcpip: udp receive timeout")
	}
}

// Close unbinds the port.
func (u *UDPConn) Close() {
	u.once.Do(func() {
		u.stack.mu.Lock()
		delete(u.stack.udpConns, u.port)
		u.stack.mu.Unlock()
		close(u.rx)
	})
}

func (s *Stack) handleUDP(src Addr, b []byte) {
	if len(b) < 8 {
		return
	}
	// The caller verified the packet was addressed to us, so the
	// pseudo-header destination is our own address.
	if pseudoChecksum(ProtoUDP, src, s.ip, b) != 0 {
		return
	}
	dstPort := be16(b[2:])
	s.mu.Lock()
	u, ok := s.udpConns[dstPort]
	s.mu.Unlock()
	if !ok {
		return
	}
	dg := UDPDatagram{Src: src, SrcPort: be16(b[0:]), Data: append([]byte(nil), b[8:]...)}
	select {
	case u.rx <- dg:
	default: // receiver not draining; drop like a kernel would
	}
}
