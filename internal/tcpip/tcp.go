package tcpip

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// TCP implementation notes. This is a deliberately compact but real
// TCP: three-way handshake, cumulative ACKs, MSS segmentation, peer
// window respect, exponential-backoff retransmission, graceful FIN
// teardown in both directions, RST on refusal and abort, TIME_WAIT,
// and bounded out-of-order reassembly (segments ahead of the expected
// sequence wait for the gap to fill instead of forcing retransmission).
//
// ACK policy: the drain batch is the ACK unit, as receive coalescing
// makes it on a real NIC. In-order data does not answer with a pure
// ACK of its own; it marks the TCB as owing one, and Stack.loop sends
// one pure ACK per TCB still owing after it has demuxed the whole
// batch. Every segment a TCB sends carries ack = rcvNxt, so a reply
// written before that flush pays the debt and the ACK rides on the
// data. Out-of-order data, a segment that fills a reassembly gap, and
// old or duplicate data are ACKed at once (RFC 5681 §4.2), and so is
// a FIN. There is no delayed-ACK timer: every ACK leaves within the
// batch that earned it, so a sender never waits on one against
// maxInFlight.
//
// Two listen models coexist, because the paper's two platforms differ
// exactly here (§5.3):
//
//   - Listener (BSD style): a factory socket; each SYN conjures a new
//     connection delivered through Accept.
//   - ListenOne (Dynamic C style): "the socket bound to the port also
//     handles the request, so each connection is required to have a
//     corresponding call to tcp_listen". A one-shot TCB that becomes
//     the connection itself.

type tcpState int

// TCP connection states (RFC 793 names).
const (
	stateClosed tcpState = iota
	stateListen
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateClosing
	stateLastAck
	stateTimeWait
)

var stateNames = map[tcpState]string{
	stateClosed: "CLOSED", stateListen: "LISTEN", stateSynSent: "SYN_SENT",
	stateSynRcvd: "SYN_RCVD", stateEstablished: "ESTABLISHED",
	stateFinWait1: "FIN_WAIT_1", stateFinWait2: "FIN_WAIT_2",
	stateCloseWait: "CLOSE_WAIT", stateClosing: "CLOSING",
	stateLastAck: "LAST_ACK", stateTimeWait: "TIME_WAIT",
}

func (s tcpState) String() string { return stateNames[s] }

// TCP header flags.
const (
	flagFIN = 1 << iota
	flagSYN
	flagRST
	flagPSH
	flagACK
)

// Tuning constants.
const (
	tcpMSS         = 1200
	maxInFlight    = 16 * 1024
	sndBufLimit    = 64 * 1024
	initialRTO     = 200 * time.Millisecond
	maxRTO         = 3 * time.Second
	maxRetries     = 8
	maxOOOSegments = 64
	timeWaitDelay  = 200 * time.Millisecond
	tcpHeaderLen   = 20
	advertisedWnd  = 0xffff
)

// Errors surfaced by TCP operations.
var (
	ErrConnRefused = errors.New("tcpip: connection refused")
	ErrConnReset   = errors.New("tcpip: connection reset by peer")
	ErrTimeout     = errors.New("tcpip: operation timed out")
	ErrConnClosed  = errors.New("tcpip: connection closed")
)

type tcpKey struct {
	remoteIP   Addr
	remotePort uint16
	localPort  uint16
}

type tcpSegment struct {
	srcPort, dstPort uint16
	seq, ack         uint32
	flags            uint8
	window           uint16
	payload          []byte
}

// appendTCPIP marshals the IP header and the TCP segment into buf's
// backing array in a single pass, copying the payload once. The buffer
// is reused when its capacity suffices; every header byte is written
// explicitly, so stale contents cannot leak through. The returned
// packet is only valid until buf's next reuse: transmission must copy
// (Port.Send does, at the wire boundary) before the caller marshals
// again.
func appendTCPIP(buf []byte, src, dst Addr, seg tcpSegment) []byte {
	total := ipHeaderLen + tcpHeaderLen + len(seg.payload)
	if cap(buf) < total {
		buf = make([]byte, total)
	} else {
		buf = buf[:total]
	}
	putIPHeader(buf, ProtoTCP, src, dst)

	t := buf[ipHeaderLen:]
	put16(t[0:], seg.srcPort)
	put16(t[2:], seg.dstPort)
	put32(t[4:], seg.seq)
	put32(t[8:], seg.ack)
	t[12] = 5 << 4
	t[13] = seg.flags
	put16(t[14:], seg.window)
	put16(t[16:], 0) // checksum, filled below
	put16(t[18:], 0) // urgent pointer
	copy(t[tcpHeaderLen:], seg.payload)
	put16(t[16:], pseudoChecksum(ProtoTCP, src, dst, t))
	return buf
}

// Sequence-space comparisons (mod 2^32).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// TCB is a TCP connection (or a Dynamic-C-style listening socket that
// will become one). It implements io.ReadWriteCloser once established.
type TCB struct {
	stack *Stack
	mu    sync.Mutex
	cond  sync.Cond // L is &mu

	state      tcpState
	localPort  uint16
	remotePort uint16
	remoteIP   Addr

	iss, irs uint32
	sndUna   uint32 // oldest unacknowledged
	sndNxt   uint32 // next to send
	rcvNxt   uint32 // next expected
	peerWnd  uint16

	// sndBuf holds unacked+unsent data; index sndStart is seq sndUna.
	// ACKs advance sndStart instead of re-slicing (re-slicing the front
	// off makes every later append reallocate); the buffer resets when
	// fully acked and compacts in Write if the tail would otherwise
	// grow past its capacity.
	sndBuf    []byte
	sndStart  int
	sndClosed bool // Close called; FIN queued behind data
	finSent   bool
	finSeq    uint32

	// rcvBuf holds in-order received data; index rcvStart is the next
	// unread byte. While rcvPinned, a Peek caller holds views into
	// rcvBuf (and may be decrypting in place), so the buffer must not
	// move: arrivals divert to rcvPending and merge back when the
	// reader unpins (Discard, or the next Peek).
	rcvBuf     []byte
	rcvStart   int
	rcvPinned  bool
	rcvPending []byte
	rcvClosed  bool // peer FIN consumed
	// ooo holds out-of-order segments (seq -> payload) awaiting the
	// gap to fill; bounded to keep a hostile peer from ballooning it.
	ooo map[uint32][]byte

	err error

	rtoArmed    bool
	rtoDeadline time.Time
	rto         time.Duration
	retries     int

	// The stack's sweep lists (Stack.live, Stack.timeWait) thread
	// through these, and timeWaitAt is the TIME_WAIT expiry; all are
	// guarded by stack.mu, not t.mu.
	list       *tcbList
	prev, next *TCB
	timeWaitAt time.Time

	// RTT sampling, Karn's algorithm: one timed sequence number at a
	// time, and the pending sample is invalidated on retransmission
	// (an ACK after a retransmit is ambiguous about which copy it
	// answers).
	rttValid bool
	rttSeq   uint32 // sample completes when sndUna passes this
	rttAt    time.Time

	// listener is the BSD listener whose backlog slot this passive
	// connection holds while in SYN_RCVD: the slot passes to the
	// accept queue when the handshake completes, and is returned if
	// the connection dies first.
	listener *Listener

	// wakeAt is the earliest deadline a waiter is blocked on (zero:
	// none); see waitCond.
	wakeAt time.Time

	// ackOwed marks in-order data received in the current drain batch
	// and not yet acknowledged; any segment sent with ACK clears it.
	ackOwed bool

	// txScratch is the reusable segment marshal buffer (guarded by
	// t.mu, like every send call); Port.Send copies at the wire
	// boundary, so reuse on the next segment is safe. It is txBuf,
	// sized for the largest segment, so marshalling never regrows it.
	txScratch []byte
	txBuf     [ipHeaderLen + tcpHeaderLen + tcpMSS]byte
}

// newTCB returns a closed TCB on s in one allocation: its condition
// variable and segment buffer live inside it.
func newTCB(s *Stack) *TCB {
	t := &TCB{stack: s, rto: initialRTO, peerWnd: advertisedWnd}
	t.cond.L = &t.mu
	t.txScratch = t.txBuf[:0]
	return t
}

// RemoteAddr returns the peer address and port (zero until bound).
func (t *TCB) RemoteAddr() (Addr, uint16) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.remoteIP, t.remotePort
}

// waitCond blocks until pred() holds, the connection errors, or the
// deadline passes. Called with t.mu held; returns with t.mu held.
// A waiter lowers wakeAt to its deadline, and the stack's 10 ms sweep
// wakes every waiter once wakeAt has passed (tick), so a wait expires
// at most one pass late; each re-checks its own deadline. No waiter is
// out of the sweep's reach: it visits every live and LISTEN TCB, and a
// waiter on a TIME_WAIT or CLOSED one, where no predicate can come
// true, returns ErrConnClosed at once.
func (t *TCB) waitCond(deadline time.Time, pred func() bool) error {
	for !pred() {
		if t.err != nil {
			return t.err
		}
		if t.state == stateTimeWait || t.state == stateClosed {
			return ErrConnClosed
		}
		if !deadline.IsZero() {
			if !time.Now().Before(deadline) {
				return ErrTimeout
			}
			if t.wakeAt.IsZero() || deadline.Before(t.wakeAt) {
				t.wakeAt = deadline
			}
		}
		t.cond.Wait()
	}
	return nil
}

// sndLen returns the bytes pending in the send buffer. t.mu held.
func (t *TCB) sndLen() int { return len(t.sndBuf) - t.sndStart }

// rcvLen returns the readable bytes in the receive buffer (excluding
// any pinned-aside pending bytes). t.mu held.
func (t *TCB) rcvLen() int { return len(t.rcvBuf) - t.rcvStart }

// mergePendingLocked folds rcvPending back into rcvBuf and resets a
// fully-drained buffer so its capacity is reused. No-op while pinned —
// the whole point of rcvPending is that rcvBuf cannot move then.
// t.mu held.
func (t *TCB) mergePendingLocked() {
	if t.rcvPinned {
		return
	}
	if t.rcvStart == len(t.rcvBuf) && t.rcvStart > 0 {
		t.rcvBuf = t.rcvBuf[:0]
		t.rcvStart = 0
	}
	if len(t.rcvPending) > 0 {
		t.rcvBuf = append(t.rcvBuf, t.rcvPending...)
		t.rcvPending = t.rcvPending[:0]
	}
}

// appendRcvLocked adds in-order payload bytes for the reader,
// diverting to the pending buffer while a Peek view pins rcvBuf.
// t.mu held.
func (t *TCB) appendRcvLocked(payload []byte) {
	if t.rcvPinned {
		t.rcvPending = append(t.rcvPending, payload...)
	} else {
		t.rcvBuf = append(t.rcvBuf, payload...)
	}
}

// send transmits one segment for this connection. Called with t.mu held.
func (t *TCB) send(seg tcpSegment) {
	seg.srcPort = t.localPort
	seg.dstPort = t.remotePort
	seg.window = advertisedWnd
	if seg.flags&flagACK != 0 {
		t.ackOwed = false // every ACK carries rcvNxt
	}
	t.txScratch = appendTCPIP(t.txScratch, t.stack.ip, t.remoteIP, seg)
	t.stack.metrics.segsSent.Inc()
	t.stack.mu.Lock()
	t.stack.sendIP(t.remoteIP, t.txScratch)
	t.stack.mu.Unlock()
}

func (t *TCB) armRTO() {
	t.rtoArmed = true
	t.rtoDeadline = time.Now().Add(t.rto)
}

// startRTO arms the timer for a new segment only if it is not already
// running (RFC 6298 §5.1): the deadline belongs to the oldest
// unacknowledged segment, so a steady stream of writes cannot keep
// pushing it out. An ACK that advances sndUna restarts it (§5.3).
func (t *TCB) startRTO() {
	if !t.rtoArmed {
		t.armRTO()
	}
}

// transmit pushes out as much pending data as window allows, then the
// FIN if Close has drained the buffer. Called with t.mu held.
func (t *TCB) transmit() {
	switch t.state {
	case stateEstablished, stateCloseWait, stateFinWait1, stateClosing, stateLastAck:
	default:
		return
	}
	wnd := int(t.peerWnd)
	if wnd > maxInFlight {
		wnd = maxInFlight
	}
	sent := int(t.sndNxt - t.sndUna)
	if t.finSent {
		sent-- // FIN occupies one phantom byte past the buffer
	}
	for sent < t.sndLen() && sent < wnd {
		n := t.sndLen() - sent
		if n > tcpMSS {
			n = tcpMSS
		}
		if n > wnd-sent {
			n = wnd - sent
		}
		t.send(tcpSegment{
			seq: t.sndUna + uint32(sent), ack: t.rcvNxt,
			flags:   flagACK | flagPSH,
			payload: t.sndBuf[t.sndStart+sent : t.sndStart+sent+n],
		})
		sent += n
		t.sndNxt = t.sndUna + uint32(sent)
		if !t.rttValid {
			t.rttValid = true
			t.rttSeq = t.sndNxt
			t.rttAt = time.Now()
		}
		t.startRTO()
	}
	if t.sndClosed && !t.finSent && sent == t.sndLen() {
		t.finSeq = t.sndUna + uint32(t.sndLen())
		t.send(tcpSegment{seq: t.finSeq, ack: t.rcvNxt, flags: flagFIN | flagACK})
		t.finSent = true
		t.sndNxt = t.finSeq + 1
		switch t.state {
		case stateEstablished:
			t.state = stateFinWait1
		case stateCloseWait:
			t.state = stateLastAck
		}
		t.startRTO()
	}
}

// tick wakes the deadline waiters once now reaches wakeAt and runs the
// retransmission timer; the stack's timer pass calls it every 10 ms.
// TIME_WAIT has no timer here: the pass ends it with expireTimeWait.
func (t *TCB) tick(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wakeAt.IsZero() && !now.Before(t.wakeAt) {
		t.wakeAt = time.Time{}
		t.cond.Broadcast()
	}
	if !t.rtoArmed || now.Before(t.rtoDeadline) {
		return
	}
	outstanding := t.sndNxt != t.sndUna
	if !outstanding {
		t.rtoArmed = false
		return
	}
	t.retries++
	if t.retries > maxRetries {
		t.abortLocked(ErrTimeout, true)
		return
	}
	t.rto *= 2
	if t.rto > maxRTO {
		t.rto = maxRTO
	}
	t.rttValid = false // Karn: the next ACK is ambiguous, discard sample
	t.stack.metrics.retransmits.Inc()
	t.stack.trace.Emit("tcp", "retransmit",
		"local", t.localPort, "remote", t.remotePort,
		"state", t.state.String(), "seq", t.sndUna, "try", t.retries,
		"rto_ms", t.rto.Milliseconds())
	// Retransmit from sndUna: SYN, data, or FIN depending on phase.
	switch t.state {
	case stateSynSent:
		t.send(tcpSegment{seq: t.iss, flags: flagSYN})
	case stateSynRcvd:
		t.send(tcpSegment{seq: t.iss, ack: t.rcvNxt, flags: flagSYN | flagACK})
	default:
		if t.sndLen() > 0 {
			n := t.sndLen()
			if n > tcpMSS {
				n = tcpMSS
			}
			t.send(tcpSegment{
				seq: t.sndUna, ack: t.rcvNxt,
				flags: flagACK | flagPSH, payload: t.sndBuf[t.sndStart : t.sndStart+n],
			})
		} else if t.finSent {
			t.send(tcpSegment{seq: t.finSeq, ack: t.rcvNxt, flags: flagFIN | flagACK})
		}
	}
	t.armRTO()
}

// expireTimeWait closes a TIME_WAIT TCB whose expiry the timer pass
// saw pass; one that left TIME_WAIT meanwhile (RST, abort) is done.
func (t *TCB) expireTimeWait() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != stateTimeWait {
		return
	}
	t.removeLocked()
	t.state = stateClosed
	t.cond.Broadcast()
}

// removeLocked unregisters the TCB from the stack. t.mu held.
// Lock order is always t.mu → s.mu; nothing may take t.mu under s.mu.
func (t *TCB) removeLocked() {
	key := tcpKey{t.remoteIP, t.remotePort, t.localPort}
	t.stack.mu.Lock()
	t.stack.removeTCBLocked(key, t)
	// A LISTEN-state Dynamic-C socket lives in dcListen instead.
	if ls := t.stack.dcListen[t.localPort]; len(ls) > 0 {
		kept := ls[:0]
		for _, other := range ls {
			if other != t {
				kept = append(kept, other)
			}
		}
		if len(kept) == 0 {
			delete(t.stack.dcListen, t.localPort)
		} else {
			t.stack.dcListen[t.localPort] = kept
		}
	}
	t.stack.mu.Unlock()
}

// Abort resets the connection immediately (RST), discarding queued data.
func (t *TCB) Abort() { t.abort(ErrConnClosed) }

// abort tears the connection down with an error, sending RST if asked.
func (t *TCB) abort(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.abortLocked(err, true)
}

func (t *TCB) abortLocked(err error, sendRST bool) {
	if t.state == stateClosed {
		return
	}
	if sendRST && t.state != stateListen && t.remotePort != 0 {
		t.send(tcpSegment{seq: t.sndNxt, ack: t.rcvNxt, flags: flagRST | flagACK})
	}
	t.err = err
	t.state = stateClosed
	t.rtoArmed = false
	t.removeLocked()
	if l := t.listener; l != nil {
		// Reset or timed out in SYN_RCVD: never queued for Accept.
		t.listener = nil
		l.release()
	}
	t.cond.Broadcast()
}

// handleSegment runs the state machine for one incoming segment. It
// reports whether the segment left the TCB owing an ACK it did not owe
// before, which the caller must send with flushACK once its batch is
// done.
func (t *TCB) handleSegment(seg tcpSegment) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	wasOwed := t.ackOwed

	if seg.flags&flagRST != 0 {
		switch t.state {
		case stateSynSent:
			if seg.flags&flagACK != 0 && seg.ack == t.iss+1 {
				t.abortLocked(ErrConnRefused, false)
			}
		case stateClosed, stateListen:
		default:
			if seqLEQ(t.rcvNxt, seg.seq) {
				t.abortLocked(ErrConnReset, false)
			}
		}
		return false
	}

	switch t.state {
	case stateSynSent:
		if seg.flags&(flagSYN|flagACK) == flagSYN|flagACK && seg.ack == t.iss+1 {
			t.irs = seg.seq
			t.rcvNxt = seg.seq + 1
			t.sndUna = seg.ack
			t.sndNxt = seg.ack
			t.peerWnd = seg.window
			t.state = stateEstablished
			t.rtoArmed = false
			t.retries = 0
			t.rto = initialRTO
			t.send(tcpSegment{seq: t.sndNxt, ack: t.rcvNxt, flags: flagACK})
			t.cond.Broadcast()
		} else if seg.flags&flagACK != 0 {
			// An ACK that is no SYN-ACK: the peer still holds a
			// connection on this 4-tuple that we have forgotten (a
			// host that lost power and came back on the same address
			// and port). Reset it (RFC 9293 §3.10.7.3) so our next SYN
			// finds the listener. Even an ACK of iss+1 is that stale
			// connection's: the ISN sequence is a function of the
			// address, so a restarted host reuses its ISNs too.
			t.send(tcpSegment{seq: seg.ack, flags: flagRST})
		}
		return false

	case stateSynRcvd:
		if seg.flags&flagSYN != 0 {
			// Duplicate SYN: our SYN-ACK was lost; resend.
			t.send(tcpSegment{seq: t.iss, ack: t.rcvNxt, flags: flagSYN | flagACK})
			return false
		}
		if seg.flags&flagACK != 0 && seg.ack == t.iss+1 {
			t.sndUna = seg.ack
			t.sndNxt = seg.ack
			t.peerWnd = seg.window
			t.state = stateEstablished
			t.rtoArmed = false
			t.retries = 0
			t.rto = initialRTO
			if l := t.listener; l != nil {
				t.listener = nil
				t.mu.Unlock()
				l.deliver(t)
				t.mu.Lock()
			}
			t.cond.Broadcast()
			// Fall through: segment may carry data too.
		} else {
			return false
		}

	case stateClosed, stateListen:
		return false
	}

	// Data-phase states from here on.
	if seg.flags&flagSYN != 0 {
		// A SYN on a synchronized connection: the peer has forgotten
		// it and is opening a new one on the same 4-tuple. Answer with
		// an ACK of where this one stands (RFC 9293 §3.10.7.4); a peer
		// in SYN_SENT resets it in reply.
		t.send(tcpSegment{seq: t.sndNxt, ack: t.rcvNxt, flags: flagACK})
		return false
	}
	t.peerWnd = seg.window

	if seg.flags&flagACK != 0 && seqLT(t.sndUna, seg.ack) && seqLEQ(seg.ack, t.sndNxt) {
		advance := seg.ack - t.sndUna
		dataAcked := int(advance)
		if dataAcked > t.sndLen() {
			dataAcked = t.sndLen() // FIN phantom byte
		}
		t.sndStart += dataAcked
		if t.sndStart == len(t.sndBuf) {
			t.sndBuf = t.sndBuf[:0]
			t.sndStart = 0
		}
		t.sndUna = seg.ack
		t.retries = 0
		t.rto = initialRTO
		if t.rttValid && seqLEQ(t.rttSeq, seg.ack) {
			rtt := time.Since(t.rttAt)
			t.rttValid = false
			t.stack.metrics.rttUs.Observe(uint64(rtt.Microseconds()))
			// Guarded: Emit boxes its arguments before the nil-receiver
			// check, and this fires on every timed ACK — the one trace
			// call on the steady-state receive path.
			if t.stack.trace != nil {
				t.stack.trace.Emit("tcp", "rtt_sample",
					"local", t.localPort, "remote", t.remotePort,
					"rtt_us", rtt.Microseconds())
			}
		}
		if t.sndUna == t.sndNxt {
			t.rtoArmed = false
		} else {
			t.armRTO()
		}
		if t.finSent && seg.ack == t.finSeq+1 {
			switch t.state {
			case stateFinWait1:
				t.state = stateFinWait2
			case stateClosing:
				t.enterTimeWait()
			case stateLastAck:
				t.state = stateClosed
				t.removeLocked()
			}
		}
		t.cond.Broadcast()
	}

	if len(seg.payload) > 0 {
		switch t.state {
		case stateEstablished, stateFinWait1, stateFinWait2:
			switch {
			case seg.seq == t.rcvNxt:
				fillsGap := len(t.ooo) > 0
				t.appendRcvLocked(seg.payload)
				t.rcvNxt += uint32(len(seg.payload))
				t.drainOOO()
				t.cond.Broadcast()
				if fillsGap {
					// A gap fill is ACKed at once, so the sender
					// learns how far reassembly got.
					t.send(tcpSegment{seq: t.sndNxt, ack: t.rcvNxt, flags: flagACK})
				} else {
					// The batch's flush (or a reply sent before it)
					// carries this ACK.
					t.ackOwed = true
				}
			case seqLT(t.rcvNxt, seg.seq):
				// Future segment: stash for reassembly (bounded), and
				// send the duplicate ACK that prods the sender.
				if t.ooo == nil {
					t.ooo = map[uint32][]byte{}
				}
				if len(t.ooo) < maxOOOSegments {
					if _, dup := t.ooo[seg.seq]; !dup {
						t.ooo[seg.seq] = append([]byte(nil), seg.payload...)
					}
				}
				t.send(tcpSegment{seq: t.sndNxt, ack: t.rcvNxt, flags: flagACK})
			default:
				// Old or duplicate data: our ACK was lost, so repeat it.
				t.send(tcpSegment{seq: t.sndNxt, ack: t.rcvNxt, flags: flagACK})
			}
		default:
			t.send(tcpSegment{seq: t.sndNxt, ack: t.rcvNxt, flags: flagACK})
		}
	}

	if seg.flags&flagFIN != 0 {
		finSeq := seg.seq + uint32(len(seg.payload))
		if finSeq == t.rcvNxt {
			t.rcvNxt++
			t.rcvClosed = true
			t.send(tcpSegment{seq: t.sndNxt, ack: t.rcvNxt, flags: flagACK})
			switch t.state {
			case stateEstablished:
				t.state = stateCloseWait
			case stateFinWait1:
				// Our FIN not yet acked: simultaneous close.
				t.state = stateClosing
			case stateFinWait2:
				t.enterTimeWait()
			}
			t.cond.Broadcast()
		} else if seqLT(finSeq, t.rcvNxt) {
			// Duplicate FIN: re-ACK.
			t.send(tcpSegment{seq: t.sndNxt, ack: t.rcvNxt, flags: flagACK})
		}
	}

	t.transmit()
	return t.ackOwed && !wasOwed
}

// flushACK sends the pure ACK a drain batch's in-order data earned,
// unless a segment sent since has already carried it.
func (t *TCB) flushACK() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ackOwed && t.state != stateClosed {
		t.send(tcpSegment{seq: t.sndNxt, ack: t.rcvNxt, flags: flagACK})
	}
	t.ackOwed = false
}

// drainOOO appends any stashed segments that have become contiguous.
// Called with t.mu held after rcvNxt advances.
func (t *TCB) drainOOO() {
	for {
		payload, ok := t.ooo[t.rcvNxt]
		if !ok {
			// Also discard anything now wholly in the past.
			for seq := range t.ooo {
				if seqLT(seq, t.rcvNxt) {
					delete(t.ooo, seq)
				}
			}
			return
		}
		delete(t.ooo, t.rcvNxt)
		t.appendRcvLocked(payload)
		t.rcvNxt += uint32(len(payload))
	}
}

// enterTimeWait moves the TCB to TIME_WAIT and off the stack's live
// list onto its TIME_WAIT FIFO, so the timer sweep visits it again only
// once timeWaitDelay has passed. Called with t.mu held.
func (t *TCB) enterTimeWait() {
	t.state = stateTimeWait
	t.rtoArmed = false
	t.stack.mu.Lock()
	t.stack.parkTimeWaitLocked(t, time.Now().Add(timeWaitDelay))
	t.stack.mu.Unlock()
}

// --- Public connection API ------------------------------------------------

// Read fills buf with received data, blocking until at least one byte,
// EOF (peer FIN), or error.
func (t *TCB) Read(buf []byte) (int, error) {
	return t.ReadDeadline(buf, time.Time{})
}

// ReadDeadline is Read with an absolute deadline (zero = none). The
// deadline is checked on the stack's 10 ms timer sweep, so an expired
// read returns ErrTimeout at most one pass (10 ms) after it.
func (t *TCB) ReadDeadline(buf []byte, deadline time.Time) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mergePendingLocked()
	err := t.waitCond(deadline, func() bool {
		return t.rcvLen() > 0 || t.rcvClosed
	})
	if t.rcvLen() == 0 {
		if err != nil {
			return 0, err
		}
		return 0, io.EOF
	}
	n := copy(buf, t.rcvBuf[t.rcvStart:])
	t.rcvStart += n
	t.mergePendingLocked()
	return n, nil
}

// Avail returns the number of buffered received bytes (non-blocking).
func (t *TCB) Avail() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rcvLen() + len(t.rcvPending)
}

// Peek blocks until at least n received bytes are buffered, then
// returns all buffered bytes as a view into the receive buffer — no
// copy. The caller owns the view (and may mutate it, e.g. decrypt in
// place) until its matching Discard or the next Peek, either of which
// invalidates it. While a view is outstanding the buffer is pinned:
// concurrently arriving segments divert to a side buffer so the viewed
// memory cannot move under the caller. On EOF with no buffered data it
// returns io.EOF; with some-but-fewer than n bytes, io.ErrUnexpectedEOF
// (the io.ReadFull convention, which the record layer's framing
// expects). Like ReadDeadline's, its deadline expires at most one
// 10 ms sweep pass late.
func (t *TCB) Peek(n int, deadline time.Time) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rcvPinned = false // this call invalidates any previous view
	t.mergePendingLocked()
	err := t.waitCond(deadline, func() bool {
		t.mergePendingLocked()
		return t.rcvLen() >= n || t.rcvClosed
	})
	if t.rcvLen() < n {
		if err != nil {
			return nil, err
		}
		if t.rcvLen() == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	t.rcvPinned = true
	return t.rcvBuf[t.rcvStart:], nil
}

// Discard consumes n bytes from the front of the receive buffer and
// releases the pin taken by Peek, merging any bytes that arrived while
// the buffer was pinned. n is clamped to the buffered amount.
func (t *TCB) Discard(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rcvStart += n
	if t.rcvStart > len(t.rcvBuf) {
		t.rcvStart = len(t.rcvBuf)
	}
	t.rcvPinned = false
	t.mergePendingLocked()
}

// Write queues data for transmission, blocking while the send buffer
// is full. It returns early with the connection's error if it dies.
func (t *TCB) Write(data []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	written := 0
	for written < len(data) {
		if t.err != nil {
			return written, t.err
		}
		if t.sndClosed {
			return written, ErrConnClosed
		}
		switch t.state {
		case stateEstablished, stateCloseWait:
		default:
			return written, ErrConnClosed
		}
		space := sndBufLimit - t.sndLen()
		if space <= 0 {
			if err := t.waitCond(time.Now().Add(10*time.Second), func() bool {
				return t.sndLen() < sndBufLimit || t.err != nil || t.sndClosed
			}); err != nil {
				return written, err
			}
			continue
		}
		n := len(data) - written
		if n > space {
			n = space
		}
		// Compact acked-but-unreclaimed front space instead of growing:
		// nothing holds views into sndBuf (send copies synchronously),
		// so sliding the pending bytes down is always safe and keeps the
		// buffer's capacity bounded by the send-buffer limit.
		if t.sndStart > 0 && len(t.sndBuf)+n > cap(t.sndBuf) {
			kept := copy(t.sndBuf, t.sndBuf[t.sndStart:])
			t.sndBuf = t.sndBuf[:kept]
			t.sndStart = 0
		}
		t.sndBuf = append(t.sndBuf, data[written:written+n]...)
		written += n
		t.transmit()
	}
	return written, nil
}

// Close performs a graceful shutdown: queued data is sent, then FIN.
func (t *TCB) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sndClosed || t.state == stateClosed {
		return nil
	}
	switch t.state {
	case stateSynSent, stateSynRcvd, stateListen:
		t.abortLocked(ErrConnClosed, t.state == stateSynRcvd)
		return nil
	}
	t.sndClosed = true
	t.transmit()
	t.cond.Broadcast()
	return nil
}

// CloseWrite half-closes the connection — shutdown(SHUT_WR): FIN goes
// out and further Writes fail, but received data keeps draining until
// the peer's own FIN. Close already has exactly these semantics (it
// never discards undelivered receive data), so this is a documented
// alias for callers that want the intent explicit.
func (t *TCB) CloseWrite() error { return t.Close() }

// Established reports whether the connection is usable for data.
func (t *TCB) Established() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state == stateEstablished || t.state == stateCloseWait
}

// Alive reports whether the connection still exists in any live state
// (the Dynamic C tcp_tick(&sock) truthiness).
func (t *TCB) Alive() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.state {
	case stateClosed:
		return false
	case stateTimeWait:
		return false
	}
	return true
}

// WaitEstablished blocks until the handshake completes or fails; a
// timeout (zero = none) expires at most one 10 ms sweep pass late.
func (t *TCB) WaitEstablished(timeout time.Duration) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	return t.waitCond(deadline, func() bool {
		return t.state == stateEstablished || t.state == stateCloseWait
	})
}

// --- Connect (active open) -------------------------------------------------

// Connect opens a TCP connection to dst:port, blocking until the
// handshake completes or the timeout expires; the timeout expires at
// most one 10 ms sweep pass late.
func (s *Stack) Connect(dst Addr, port uint16, timeout time.Duration) (*TCB, error) {
	t := newTCB(s)
	s.mu.Lock()
	if s.closedLocked() {
		s.mu.Unlock()
		return nil, ErrStackClosed
	}
	local := s.ephemeralPort()
	if local == 0 {
		s.mu.Unlock()
		return nil, errors.New("tcpip: no free ephemeral ports")
	}
	t.localPort = local
	t.remoteIP = dst
	t.remotePort = port
	t.iss = s.isn.Uint32()
	t.sndUna = t.iss
	t.sndNxt = t.iss + 1
	t.state = stateSynSent
	s.addTCBLocked(tcpKey{dst, port, local}, t)
	s.mu.Unlock()

	t.mu.Lock()
	t.send(tcpSegment{seq: t.iss, flags: flagSYN})
	t.armRTO()
	deadline := time.Now().Add(timeout)
	// CLOSE_WAIT also means the handshake completed: a server that
	// accepts and immediately closes (e.g. admission refusal) can move
	// the TCB ESTABLISHED -> CLOSE_WAIT before this goroutine wakes.
	err := t.waitCond(deadline, func() bool {
		return t.state == stateEstablished || t.state == stateCloseWait
	})
	t.mu.Unlock()
	if err != nil {
		t.abort(err)
		return nil, fmt.Errorf("tcpip: connect %s:%d: %w", dst, port, err)
	}
	return t, nil
}

// --- BSD-style listener -----------------------------------------------------

// Listener is a BSD-style passive socket; Accept yields established
// connections.
type Listener struct {
	stack    *Stack
	port     uint16
	backlog  int
	acceptCh chan *TCB
	mu       sync.Mutex
	pending  int
	closed   bool
}

// ListenBacklog is the backlog the services listen with: 128, Linux's
// SOMAXCONN. It must exceed the connects a load run offers at once
// (loadgen runs 32 clients), because a SYN that finds the backlog full
// is refused and the client redials only after a backoff.
const ListenBacklog = 128

// Listen binds a BSD-style listener. backlog bounds connections that
// completed the handshake but have not been accepted (LISTENQ).
func (s *Stack) Listen(port uint16, backlog int) (*Listener, error) {
	if backlog < 1 {
		backlog = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedLocked() {
		return nil, ErrStackClosed
	}
	if _, ok := s.listeners[port]; ok {
		return nil, fmt.Errorf("%w: tcp/%d", ErrPortInUse, port)
	}
	if len(s.dcListen[port]) > 0 {
		return nil, fmt.Errorf("%w: tcp/%d (DC listener present)", ErrPortInUse, port)
	}
	l := &Listener{stack: s, port: port, backlog: backlog,
		acceptCh: make(chan *TCB, backlog)}
	s.listeners[port] = l
	return l, nil
}

// Accept blocks for the next established connection.
func (l *Listener) Accept(timeout time.Duration) (*TCB, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout) // stopped on return, unlike time.After's
		defer t.Stop()
		timer = t.C
	}
	select {
	case t, ok := <-l.acceptCh:
		if !ok {
			return nil, ErrConnClosed
		}
		l.mu.Lock()
		l.pending--
		l.mu.Unlock()
		return t, nil
	case <-timer:
		return nil, ErrTimeout
	}
}

// release returns the backlog slot of a connection that died before
// its handshake completed. Lock order: it takes l.mu under the dying
// TCB's t.mu, which is safe because deliver, the one path that holds
// l.mu while taking a t.mu, only handles a TCB whose listener field
// it has already cleared.
func (l *Listener) release() {
	l.mu.Lock()
	l.pending--
	l.mu.Unlock()
}

// deliver hands an established connection to Accept. Called by the
// TCB state machine with no TCB lock held; the pending counter
// guarantees channel capacity.
func (l *Listener) deliver(conn *TCB) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		conn.abort(ErrConnClosed)
		return
	}
	l.acceptCh <- conn
	l.mu.Unlock()
}

// Close stops listening. Queued-but-unaccepted connections are reset.
func (l *Listener) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	l.stack.mu.Lock()
	if l.stack.listeners[l.port] == l {
		delete(l.stack.listeners, l.port)
	}
	l.stack.mu.Unlock()
	close(l.acceptCh)
	for t := range l.acceptCh {
		t.abort(ErrConnClosed)
	}
}

// --- Dynamic-C-style one-shot listen ----------------------------------------

// ListenOne registers a Dynamic-C-style listening socket: the returned
// TCB itself becomes the connection when a SYN arrives (tcp_listen
// semantics). Multiple ListenOne sockets may share a port; an incoming
// SYN claims the oldest. If no socket is listening, the SYN is refused
// with RST — this is what enforces the three-connection limit of the
// paper's Fig. 3 server.
func (s *Stack) ListenOne(port uint16) (*TCB, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedLocked() {
		return nil, ErrStackClosed
	}
	if _, ok := s.listeners[port]; ok {
		return nil, fmt.Errorf("%w: tcp/%d (BSD listener present)", ErrPortInUse, port)
	}
	t := newTCB(s)
	t.localPort = port
	t.state = stateListen
	s.dcListen[port] = append(s.dcListen[port], t)
	return t, nil
}

// --- Stack-level TCP demux ----------------------------------------------------

// handleTCPView verifies and demuxes one TCP segment arriving as a
// view into the receive slab. The header is read in place through
// TCPFrame; the segment's payload slice still aliases the slab, so
// everything downstream must copy what it keeps before returning
// (handleSegment's receive-buffer append does exactly that). It
// returns the TCB the segment left owing an ACK, or nil.
func (s *Stack) handleTCPView(src Addr, b []byte) *TCB {
	// The frame was addressed to us (handleFrameView checked), so the
	// pseudo-header destination is our own address.
	if pseudoChecksum(ProtoTCP, src, s.ip, b) != 0 {
		s.metrics.checksumDrops.Inc()
		s.trace.Emit("tcp", "checksum_drop", "src", src.String(), "len", len(b))
		return nil
	}
	f, err := ParseTCPFrame(b)
	if err != nil {
		return nil
	}
	return s.demuxTCP(src, f.segment())
}

// demuxTCP routes a verified segment to its TCB, matching SYNs against
// listeners and answering strays with RST. It returns the TCB if the
// segment left it owing an ACK it did not owe before, else nil.
func (s *Stack) demuxTCP(src Addr, seg tcpSegment) *TCB {
	s.metrics.segsRcvd.Inc()
	key := tcpKey{src, seg.srcPort, seg.dstPort}
	s.mu.Lock()
	t, found := s.tcbs[key]
	var fresh bool
	var iss uint32
	if !found && seg.flags&flagSYN != 0 && seg.flags&flagACK == 0 {
		t, fresh = s.matchSYNLocked(src, seg, key)
		if fresh {
			// s.isn is shared with Connect; both draw under s.mu.
			iss = s.isn.Uint32()
		}
	}
	s.mu.Unlock()
	if t != nil && fresh {
		// Bind outside s.mu (lock order: t.mu → s.mu only). If the
		// socket was closed in the meantime, refuse the connection.
		if !t.bindPassive(src, seg, iss) {
			s.mu.Lock()
			s.removeTCBLocked(key, t)
			s.mu.Unlock()
			s.sendRST(src, seg)
			return nil
		}
	}
	if t != nil {
		if t.handleSegment(seg) {
			return t
		}
		return nil
	}
	if seg.flags&flagRST == 0 {
		s.sendRST(src, seg)
	}
	return nil
}

// matchSYNLocked matches an incoming SYN against DC one-shot sockets
// first, then BSD listeners, registering the owning TCB in the
// connection table. It does NOT touch t.mu. Called with s.mu held.
func (s *Stack) matchSYNLocked(src Addr, seg tcpSegment, key tcpKey) (*TCB, bool) {
	port := seg.dstPort
	if ls := s.dcListen[port]; len(ls) > 0 {
		t := ls[0]
		s.dcListen[port] = ls[1:]
		if len(s.dcListen[port]) == 0 {
			delete(s.dcListen, port)
		}
		s.addTCBLocked(key, t)
		return t, true
	}
	if l, ok := s.listeners[port]; ok {
		l.mu.Lock()
		full := l.closed || l.pending >= l.backlog
		if !full {
			l.pending++
		}
		l.mu.Unlock()
		if full {
			return nil, false
		}
		t := newTCB(s)
		t.localPort = port
		t.listener = l
		s.addTCBLocked(key, t)
		return t, true
	}
	return nil, false
}

// bindPassive points a TCB at the SYN's originator and moves it to
// SYN_RCVD with initial send sequence iss. It reports false if the
// socket was concurrently closed.
// The SYN-ACK itself is sent by handleSegment, which processes this
// same SYN next and hits the SYN_RCVD duplicate-SYN path.
func (t *TCB) bindPassive(src Addr, seg tcpSegment, iss uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A DC socket must still be listening; a fresh BSD-side TCB is in
	// its virgin zero state. Anything else means a racing Close/abort.
	if t.err != nil || (t.state != stateListen && t.state != stateClosed) ||
		t.remotePort != 0 {
		return false
	}
	t.remoteIP = src
	t.remotePort = seg.srcPort
	t.irs = seg.seq
	t.rcvNxt = seg.seq + 1
	t.iss = iss
	t.sndUna = t.iss
	t.sndNxt = t.iss + 1
	t.peerWnd = seg.window
	t.state = stateSynRcvd
	t.rto = initialRTO
	t.rtoArmed = true
	t.rtoDeadline = time.Now().Add(t.rto)
	return true
}

// sendRST answers an unmatched segment with a reset.
func (s *Stack) sendRST(dst Addr, seg tcpSegment) {
	var rst tcpSegment
	rst.srcPort = seg.dstPort
	rst.dstPort = seg.srcPort
	rst.flags = flagRST | flagACK
	if seg.flags&flagACK != 0 {
		rst.seq = seg.ack
	}
	adv := uint32(len(seg.payload))
	if seg.flags&flagSYN != 0 {
		adv++
	}
	if seg.flags&flagFIN != 0 {
		adv++
	}
	rst.ack = seg.seq + adv
	raw := appendTCPIP(nil, s.ip, dst, rst)
	s.metrics.segsSent.Inc()
	s.mu.Lock()
	s.sendIP(dst, raw)
	s.mu.Unlock()
}
