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
// receiver's next DrainFrames call.
type EthFrame struct {
	b []byte
}

// EtherType returns the 16-bit ethertype.
func (f EthFrame) EtherType() uint16 {
	return uint16(f.b[12])<<8 | uint16(f.b[13])
}

// Payload returns the frame payload as a view into the drain buffer.
// Receivers may parse it in place but must treat it as dead after the
// next DrainFrames.
func (f EthFrame) Payload() []byte { return f.b[EthHeaderLen:] }

// Hub is a shared-medium repeater with optional latency and a
// scriptable FaultPlan (loss, corruption, duplication, reordering; see
// fault.go). The zero value is not usable; call NewHub.
type Hub struct {
	mu      sync.Mutex
	ports   []*Port
	latency time.Duration
	closed  bool

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
}

// ErrHubClosed is returned when transmitting through a closed hub.
var ErrHubClosed = errors.New("netsim: hub closed")

// ErrPortClosed is returned when transmitting on a detached port.
var ErrPortClosed = errors.New("netsim: port closed")

// Port is one attachment point on the hub — a NIC as seen by a host.
//
// Received frames are written back-to-back into a slab the receiver
// drains wholesale with DrainFrames, so the wire boundary costs one
// slab copy and zero steady-state allocations.
type Port struct {
	hub     *Hub
	mac     MAC
	promi   bool // promiscuous: receives every frame on the wire
	closed  bool // guarded by hub.mu; closedCh is closed exactly once with it
	metrics portMetrics

	// rxBuf/rxEnds are the filling slab: frames are appended as
	// [14-byte header | payload] and rxEnds records the end offset of
	// each frame. DrainFrames swaps the filling slab with the drained
	// one (drBuf/drEnds) under hub.mu, then builds views outside the
	// lock, so senders never block on a slow receiver and the receiver
	// touches the lock once per batch. All receive state is guarded by
	// hub.mu except drBuf/drEnds/drFrames, which are owned by the
	// (single) draining goroutine between swaps.
	notify   chan struct{} // cap 1: "the filling slab is non-empty"
	closedCh chan struct{}
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
		notify:   make(chan struct{}, 1),
		closedCh: make(chan struct{}),
		metrics:  newPortMetrics(h.reg, mac)}
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
	case p.notify <- struct{}{}:
	default:
	}
}

// DrainFrames blocks until at least one frame is pending, then returns
// views over the whole pending batch. The returned slice and every
// view in it are valid only until the next DrainFrames call. stop, if
// non-nil, aborts the wait (returning ErrPortClosed) — receivers pass
// their shutdown channel, and an already-closed stop makes the call
// non-blocking. After the port closes, any frames already queued are
// still drained; the error surfaces once the slab is empty.
func (p *Port) DrainFrames(stop <-chan struct{}) ([]EthFrame, error) {
	h := p.hub
	for {
		h.mu.Lock()
		if len(p.rxEnds) > 0 {
			// Swap the filling slab with the drained one. The old drain
			// slab's memory becomes the next filling slab, so steady state
			// ping-pongs between two allocations.
			p.rxBuf, p.drBuf = p.drBuf[:0], p.rxBuf
			p.rxEnds, p.drEnds = p.drEnds[:0], p.rxEnds
			select {
			case <-p.notify: // clear stale wakeup for the now-empty slab
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
		closed := p.closed
		h.mu.Unlock()
		if closed {
			return nil, ErrPortClosed
		}
		select {
		case <-p.notify:
		case <-p.closedCh:
		case <-stop: // a nil stop blocks forever, leaving the other cases
			return nil, ErrPortClosed
		}
	}
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
// to the port's own MAC. Delivery is asynchronous. Frames may be lost,
// corrupted, duplicated, reordered, or partitioned away per the hub's
// FaultPlan and partitions; none of that is visible to the sender,
// exactly as on a real wire.
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
	if h.fault == nil && h.latency == 0 {
		// Fast path: a clean zero-latency wire delivers inline, while
		// the sender's payload is still live — every target copies it
		// straight into its slab, so the send makes no allocation.
		h.deliverNowLocked(f, now)
		h.mu.Unlock()
		return nil
	}
	// Slow path: delivery is deferred (latency) or may be held back
	// (fault reordering), so copy the payload once at the wire
	// boundary — the sender may reuse its marshal scratch as soon as
	// Send returns. Receivers never mutate delivered payloads, so every
	// target shares this copy.
	if f.Payload != nil {
		f.Payload = append([]byte(nil), f.Payload...)
	}
	outgoing := []Frame{f}
	if h.fault != nil {
		onWire, released, lost := h.fault.applyFaults(f, &h.metrics, h.trace)
		if lost {
			h.metrics.framesDropped.Inc()
		}
		outgoing = append(onWire, released...)
	}
	var deliveries []delivery
	for _, fr := range outgoing {
		targets := h.targetsLocked(fr, now)
		h.metrics.framesSent.Inc()
		if len(targets) > 0 {
			deliveries = append(deliveries, delivery{fr, targets})
		}
	}
	latency := h.latency
	h.mu.Unlock()

	deliver := func() {
		// Re-take the hub lock: a port may have detached between
		// scheduling and delivery.
		h.mu.Lock()
		defer h.mu.Unlock()
		h.deliverLocked(deliveries)
	}
	if latency > 0 {
		time.AfterFunc(latency, deliver)
	} else {
		deliver()
	}
	return nil
}

// delivery is one frame bound for a set of ports.
type delivery struct {
	frame   Frame
	targets []*Port
}

// targetsLocked computes the ports a frame reaches: everything but its
// own sender (matched by source MAC — hubs do not loop frames back)
// and partitioned ports. h.mu held.
func (h *Hub) targetsLocked(fr Frame, now time.Time) []*Port {
	var targets []*Port
	for _, q := range h.ports {
		if q.mac == fr.Src {
			continue
		}
		if h.partitionedLocked(q.mac, now) {
			h.metrics.partitionDrops.Inc()
			h.trace.Emit("netsim", "fault.partition", "dst", q.mac.String(), "len", len(fr.Payload))
			continue
		}
		if fr.Dst == Broadcast || fr.Dst == q.mac || q.promi {
			targets = append(targets, q)
		}
	}
	return targets
}

// deliverNowLocked fans one frame out to its targets immediately,
// while the caller's payload is still live; each target copies it into
// its slab. h.mu held.
func (h *Hub) deliverNowLocked(f Frame, now time.Time) {
	h.metrics.framesSent.Inc()
	for _, q := range h.ports {
		if q.mac == f.Src {
			continue
		}
		// Partition is checked before destination matching, exactly as
		// targetsLocked does, so partitionDrops counts identically on
		// both paths.
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

// deliverLocked pushes deferred deliveries into receive slabs. h.mu
// held; a port that detached since the frame was scheduled is skipped
// under the same lock.
func (h *Hub) deliverLocked(deliveries []delivery) {
	for _, d := range deliveries {
		for _, q := range d.targets {
			q.enqueueLocked(d.frame)
		}
	}
}

// Close detaches the port from the hub: DrainFrames returns
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

// closeLocked marks the port closed and wakes its drainer, exactly
// once. hub.mu held.
func (p *Port) closeLocked() {
	if !p.closed {
		p.closed = true
		close(p.closedCh)
	}
}
