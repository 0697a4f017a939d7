// Package netsim simulates the wire the RMC2000 development kit plugs
// into: a 10Base-T hub connecting the embedded board to workstation
// hosts. Frames carry Ethernet-style addressing; the hub repeats every
// frame to every other port, optionally applying latency and random
// loss so the TCP layer's retransmission machinery is actually
// exercised.
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// MAC is a six-byte hardware address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in colon-hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// EtherType values used by the stack.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
)

// Frame is an Ethernet-style frame.
type Frame struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
	Payload   []byte
}

// EthHeaderLen is the Ethernet II header size: dst(6) + src(6) +
// ethertype(2).
const EthHeaderLen = 14

// EthFrame is a view over one frame inside a receiver's drain buffer:
// a 14-byte Ethernet II header followed by the payload, laid out
// back-to-back with its neighbors. Accessors read the header in place;
// nothing is decoded into a struct and the payload is never copied.
// The view (and any slice derived from it) is valid only until the
// receiver's next Drain call.
type EthFrame struct {
	b []byte
}

// EtherType returns the 16-bit ethertype.
func (f EthFrame) EtherType() uint16 {
	return uint16(f.b[12])<<8 | uint16(f.b[13])
}

// Payload returns the frame payload as a view into the drain buffer.
// Receivers may parse it in place but must treat it as dead after the
// next Drain.
func (f EthFrame) Payload() []byte { return f.b[EthHeaderLen:] }

// Hub is a shared-medium repeater with optional latency and a
// scriptable FaultPlan (loss, corruption, duplication, reordering; see
// fault.go). The zero value is not usable; call NewHub.
type Hub struct {
	mu      sync.Mutex
	ports   []*Port
	latency time.Duration
	closed  bool

	// line is a latency wire's delay line: frames in send order, each
	// with a private payload copy and its due time. lineBusy is set
	// while the one goroutine that drains it runs (see runLine).
	line     []delayed
	lineBusy bool

	fault      *faultState       // nil: clean wire
	partitions map[MAC]time.Time // MAC -> heal deadline (zero: manual)

	// clock is the hub's time axis: partition-heal deadlines are set
	// and checked against it. Defaults to wall time; SetClock swaps in
	// a telemetry.ManualClock so heal schedules run deterministically
	// without wall-clock sleeps. epoch anchors Clock's nanosecond
	// readings to the time.Time deadlines stored in partitions.
	clock telemetry.Clock
	epoch time.Time

	// Telemetry. metrics counters are cumulative across fault plans
	// (they survive SetFaultPlan(nil)); reg is kept so ports attached
	// after SetTelemetry land on the same registry.
	metrics hubMetrics
	reg     *telemetry.Registry
	trace   *telemetry.Trace
}

// delayed is one frame on the delay line.
type delayed struct {
	frame Frame
	due   time.Time // wall time
}

// NewHub creates a hub with no latency or loss. Its counters live on a
// private registry until SetTelemetry points them somewhere shared.
func NewHub() *Hub {
	reg := telemetry.NewRegistry()
	return &Hub{
		metrics: newHubMetrics(reg),
		reg:     reg,
		clock:   telemetry.NewWallClock(),
		epoch:   time.Now(),
	}
}

// SetClock installs c as the hub's time axis (nil restores wall time).
// Partition-heal schedules then advance only when c does, which lets
// tests drive them with a telemetry.ManualClock instead of sleeping.
// Heal deadlines already set keep their position on the new axis
// relative to the hub's epoch.
func (h *Hub) SetClock(c telemetry.Clock) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c == nil {
		c = telemetry.NewWallClock()
		h.epoch = time.Now()
	}
	h.clock = c
}

// nowLocked reads the hub's time axis. h.mu held.
func (h *Hub) nowLocked() time.Time {
	return h.epoch.Add(time.Duration(h.clock.Now()))
}

// SetLatency sets one-way frame delivery delay.
func (h *Hub) SetLatency(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.latency = d
}

// Stats returns total frames delivered and dropped so far.
func (h *Hub) Stats() (sent, dropped uint64) {
	return h.metrics.framesSent.Value(), h.metrics.framesDropped.Value()
}

// Close shuts down the hub and all attached ports.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for _, p := range h.ports {
		p.closeLocked()
	}
	h.ports = nil
	h.line = nil // frames in flight go nowhere; runLine finds the line empty
}

// ErrHubClosed is returned when transmitting through a closed hub.
var ErrHubClosed = errors.New("netsim: hub closed")

// ErrPortClosed is returned when transmitting on a detached port.
var ErrPortClosed = errors.New("netsim: port closed")

// Port is one attachment point on the hub — a NIC as seen by a host.
//
// Received frames are written back-to-back into a slab the receiver
// drains wholesale with Drain, so the wire boundary costs one slab copy
// and zero steady-state allocations.
type Port struct {
	hub     *Hub
	mac     MAC
	promi   bool // promiscuous: receives every frame on the wire
	closed  bool // guarded by hub.mu; ready is closed exactly once with it
	metrics portMetrics

	// rxBuf/rxEnds are the filling slab: frames are appended as
	// [14-byte header | payload] and rxEnds records the end offset of
	// each frame. Drain swaps the filling slab with the drained one
	// (drBuf/drEnds) under hub.mu, then builds views outside the lock,
	// so senders never block on a slow receiver and the receiver
	// touches the lock once per batch. All receive state is guarded by
	// hub.mu except drBuf/drEnds/drFrames, which are owned by the
	// (single) draining goroutine between swaps.
	ready    chan struct{} // cap 1: holds a token while rxEnds is non-empty; closed with the port
	rxBuf    []byte
	rxEnds   []int
	drBuf    []byte
	drEnds   []int
	drFrames []EthFrame
}

// rxQueueDepth bounds a port's receive queue; frames beyond it are
// dropped, as a real NIC's ring buffer would.
const rxQueueDepth = 256

// Attach adds a port with the given MAC to the hub.
func (h *Hub) Attach(mac MAC) (*Port, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrHubClosed
	}
	for _, p := range h.ports {
		if p.mac == mac {
			return nil, fmt.Errorf("netsim: MAC %s already attached", mac)
		}
	}
	p := &Port{hub: h, mac: mac,
		ready:   make(chan struct{}, 1),
		metrics: newPortMetrics(h.reg, mac)}
	h.ports = append(h.ports, p)
	return p, nil
}

// enqueueLocked appends one frame to the port's filling slab. hub.mu
// held. At most rxQueueDepth frames wait undrained; beyond that frames
// drop as a real NIC ring would.
func (p *Port) enqueueLocked(f Frame) {
	h := p.hub
	if p.closed {
		return
	}
	if len(p.rxEnds) >= rxQueueDepth {
		h.metrics.framesDropped.Inc()
		p.metrics.rxDrops.Inc()
		h.trace.Emit("netsim", "rx_overflow", "dst", p.mac.String(), "len", len(f.Payload))
		return
	}
	b := p.rxBuf
	b = append(b, f.Dst[:]...)
	b = append(b, f.Src[:]...)
	b = append(b, byte(f.EtherType>>8), byte(f.EtherType))
	b = append(b, f.Payload...)
	p.rxBuf = b
	p.rxEnds = append(p.rxEnds, len(b))
	p.metrics.rxBytes.Add(uint64(len(f.Payload)))
	select {
	case p.ready <- struct{}{}:
	default:
	}
}

// Ready is signalled whenever frames are pending on the port and is
// closed when the port closes. A receiver waits on it and then calls
// Drain:
//
//	for range p.Ready() {
//		frames, _ := p.Drain()
//		...
//	}
//
// which ends once the port has closed and its last frames are drained.
func (p *Port) Ready() <-chan struct{} { return p.ready }

// Drain returns views over every frame pending on the port without
// waiting: none when nothing is pending, and ErrPortClosed once the
// port has closed and its queued frames have been drained. The returned
// slice and every view in it are valid only until the next Drain call.
func (p *Port) Drain() ([]EthFrame, error) {
	h := p.hub
	h.mu.Lock()
	if len(p.rxEnds) == 0 {
		closed := p.closed
		h.mu.Unlock()
		if closed {
			return nil, ErrPortClosed
		}
		return nil, nil
	}
	// Swap the filling slab with the drained one. The old drain slab's
	// memory becomes the next filling slab, so steady state ping-pongs
	// between two allocations.
	p.rxBuf, p.drBuf = p.drBuf[:0], p.rxBuf
	p.rxEnds, p.drEnds = p.drEnds[:0], p.rxEnds
	select {
	case <-p.ready: // clear the token for the now-empty slab
	default:
	}
	h.mu.Unlock()
	frames := p.drFrames[:0]
	start := 0
	for _, end := range p.drEnds {
		frames = append(frames, EthFrame{b: p.drBuf[start:end]})
		start = end
	}
	p.drFrames = frames
	return frames, nil
}

// AttachPromiscuous adds a port that receives every frame on the wire
// regardless of destination — the hub is a shared medium, so any NIC
// in promiscuous mode (a sniffer, a protocol analyzer) sees it all.
func (h *Hub) AttachPromiscuous(mac MAC) (*Port, error) {
	p, err := h.Attach(mac)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	p.promi = true
	h.mu.Unlock()
	return p, nil
}

// MAC returns the port's hardware address.
func (p *Port) MAC() MAC { return p.mac }

// Send transmits a frame onto the wire. The source address is forced
// to the port's own MAC. Frames may be lost, corrupted, duplicated,
// reordered, delayed, or partitioned away per the hub's FaultPlan,
// latency and partitions; none of that is visible to the sender,
// exactly as on a real wire. The sender may reuse the payload as soon
// as Send returns.
func (p *Port) Send(f Frame) error {
	f.Src = p.mac
	h := p.hub
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrHubClosed
	}
	if p.closed {
		h.mu.Unlock()
		return ErrPortClosed
	}
	now := h.nowLocked()
	p.metrics.txBytes.Add(uint64(len(f.Payload)))
	if h.partitionedLocked(p.mac, now) {
		h.metrics.partitionDrops.Inc()
		h.metrics.framesDropped.Inc()
		h.trace.Emit("netsim", "fault.partition", "src", p.mac.String(), "len", len(f.Payload))
		h.mu.Unlock()
		return nil // the unplugged cable: sender cannot tell
	}
	if h.fault == nil {
		h.wireLocked(f, now)
		h.mu.Unlock()
		return nil
	}
	onWire, released, lost := h.fault.applyFaults(f, &h.metrics, h.trace)
	if lost {
		h.metrics.framesDropped.Inc()
	}
	for _, fr := range onWire {
		h.wireLocked(fr, now)
	}
	for _, fr := range released {
		h.wireLocked(fr, now)
	}
	h.mu.Unlock()
	return nil
}

// wireLocked puts one frame on the wire: a clean send, a fault plan's
// pass or duplicate, or a held frame that is released or flushed. It
// is the one place a frame is counted as sent. With no latency the
// frame fans out at once, while the sender's payload is still live, so
// a clean send makes no allocation. Otherwise the payload is copied
// onto the delay line, which runLine fans out in send order. h.mu held.
func (h *Hub) wireLocked(f Frame, now time.Time) {
	h.metrics.framesSent.Inc()
	if h.latency == 0 && len(h.line) == 0 {
		h.fanOutLocked(f, now)
		return
	}
	f.Payload = append([]byte(nil), f.Payload...)
	h.line = append(h.line, delayed{frame: f, due: time.Now().Add(h.latency)})
	if !h.lineBusy {
		h.lineBusy = true
		go h.runLine()
	}
}

// runLine drains the delay line oldest first, fanning each frame out
// at its due time, and exits once the line is empty. wireLocked starts
// it; lineBusy keeps it to one per hub, so a latency wire delivers in
// send order with one sleeper instead of a timer per frame. Partitions
// are checked at delivery.
func (h *Hub) runLine() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.line) > 0 {
		if wait := time.Until(h.line[0].due); wait > 0 {
			h.mu.Unlock()
			time.Sleep(wait)
			h.mu.Lock()
			continue
		}
		d := h.line[0]
		h.line[0] = delayed{}
		h.line = h.line[1:]
		h.fanOutLocked(d.frame, h.nowLocked())
	}
	h.lineBusy = false
}

// fanOutLocked copies one frame into the slab of every port it
// reaches: everyone but its sender (hubs do not loop frames back) that
// is not partitioned and is its destination, the broadcast address's
// audience, or promiscuous. h.mu held.
func (h *Hub) fanOutLocked(f Frame, now time.Time) {
	for _, q := range h.ports {
		if q.mac == f.Src {
			continue
		}
		if h.partitionedLocked(q.mac, now) {
			h.metrics.partitionDrops.Inc()
			h.trace.Emit("netsim", "fault.partition", "dst", q.mac.String(), "len", len(f.Payload))
			continue
		}
		if f.Dst == Broadcast || f.Dst == q.mac || q.promi {
			q.enqueueLocked(f)
		}
	}
}

// Close detaches the port from the hub: Ready closes, Drain returns
// ErrPortClosed once the frames already queued are drained, and
// further Sends return ErrPortClosed. Frames addressed to it are
// dropped on the floor, as they would be for an unplugged NIC.
func (p *Port) Close() {
	p.hub.mu.Lock()
	defer p.hub.mu.Unlock()
	p.closeLocked()
	kept := p.hub.ports[:0]
	for _, q := range p.hub.ports {
		if q != p {
			kept = append(kept, q)
		}
	}
	p.hub.ports = kept
}

// closeLocked marks the port closed and closes Ready, exactly once.
// hub.mu held.
func (p *Port) closeLocked() {
	if !p.closed {
		p.closed = true
		close(p.ready)
	}
}
