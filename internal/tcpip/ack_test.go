package tcpip

// Tests of the ACK policy (see tcp.go's header): the drain batch is the
// ACK unit. The receiving stack in these tests runs without its loop
// goroutine, so the test decides which frames form one batch: when the
// client's Write returns, every segment it sent is queued on the
// receiver's port, and one serveBatch call serves them all.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// ackRig is one client connection to a server stack that the test
// pumps by hand, with a sniffer on the wire.
type ackRig struct {
	hub      *netsim.Hub
	srv      *Stack // no loop: served by pump or serveBatch
	srvSent  *telemetry.Counter
	cliRetx  *telemetry.Counter
	cli      *TCB // client end
	conn     *TCB // server end
	sniff    *netsim.Port
	stopPump func()
}

func newACKRig(t *testing.T) *ackRig {
	t.Helper()
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	cliReg, srvReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	cliStack, err := NewStackWithTelemetry(hub, IP4(10, 0, 0, 1), cliReg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cliStack.Close)
	srv, err := newStack(hub, IP4(10, 0, 0, 2), srvReg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	r := &ackRig{hub: hub, srv: srv,
		srvSent: srvReg.Counter("tcp.segs_sent"),
		cliRetx: cliReg.Counter("tcp.retransmits")}
	r.pump()
	l, err := srv.Listen(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *TCB, 1)
	go func() {
		c, _ := l.Accept(5 * time.Second)
		accepted <- c
	}()
	if r.cli, err = cliStack.Connect(srv.Addr(), 7, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if r.conn = <-accepted; r.conn == nil {
		t.Fatal("accept failed")
	}
	r.stopPump()
	if r.sniff, err = hub.AttachPromiscuous(netsim.MAC{0x02, 0xff, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	return r
}

// pump serves the server stack's batches on a goroutine until
// stopPump, as its loop would (without timers).
func (r *ackRig) pump() {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ready := r.srv.port.Ready()
		for {
			select {
			case <-quit:
				return
			case <-ready:
				if _, err := r.srv.serveBatch(nil); err != nil {
					ready = nil
				}
			}
		}
	}()
	r.stopPump = func() { close(quit); <-done }
}

// seenSeg is one segment the sniffer saw the server send.
type seenSeg struct {
	ack   uint32
	flags uint8
	n     int // payload bytes
}

// srvSegs returns the segments the server has sent since the last call.
func (r *ackRig) srvSegs(t *testing.T) []seenSeg {
	t.Helper()
	frames, err := r.sniff.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var out []seenSeg
	for _, f := range frames {
		if f.EtherType() != netsim.EtherTypeIPv4 {
			continue
		}
		ip, err := ParseIPv4Frame(f.Payload())
		if err != nil || ip.Src() != r.srv.Addr() || ip.Proto() != ProtoTCP {
			continue
		}
		seg, err := ParseTCPFrame(ip.Payload())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, seenSeg{ack: seg.Ack(), flags: seg.Flags(), n: len(seg.Payload())})
	}
	return out
}

// wantPureACKs fails unless segs are exactly pure ACKs of acks, in order.
func wantPureACKs(t *testing.T, segs []seenSeg, acks ...uint32) {
	t.Helper()
	if len(segs) != len(acks) {
		t.Fatalf("server sent %d segments %+v, want %d pure ACKs", len(segs), segs, len(acks))
	}
	for i, s := range segs {
		if s.flags != flagACK || s.n != 0 || s.ack != acks[i] {
			t.Fatalf("segment %d = %+v, want pure ACK of %d", i, s, acks[i])
		}
	}
}

func (r *ackRig) rcvNxt() uint32 {
	r.conn.mu.Lock()
	defer r.conn.mu.Unlock()
	return r.conn.rcvNxt
}

// waitAcked waits until the server has acknowledged everything the
// client sent.
func (r *ackRig) waitAcked(t *testing.T) {
	t.Helper()
	waitUntil(t, "client data acknowledged", func() bool {
		r.cli.mu.Lock()
		defer r.cli.mu.Unlock()
		return r.cli.sndUna == r.cli.sndNxt
	})
}

// readAll reads n bytes from the server end.
func (r *ackRig) readAll(t *testing.T, n int) []byte {
	t.Helper()
	got := make([]byte, 0, n)
	buf := make([]byte, n)
	for len(got) < n {
		k, err := r.conn.ReadDeadline(buf, time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatalf("read after %d of %d bytes: %v", len(got), n, err)
		}
		got = append(got, buf[:k]...)
	}
	return got
}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestBatchSendsOneACK: a four-segment write served in one drain batch
// is answered by exactly one pure ACK, of the whole write.
func TestBatchSendsOneACK(t *testing.T) {
	r := newACKRig(t)
	data := patterned(4 * tcpMSS)
	base := r.rcvNxt()
	if _, err := r.cli.Write(data); err != nil {
		t.Fatal(err)
	}
	before := r.srvSent.Value()
	if _, err := r.srv.serveBatch(nil); err != nil {
		t.Fatal(err)
	}
	if n := r.srvSent.Value() - before; n != 1 {
		t.Errorf("tcp.segs_sent rose by %d for one batch of 4 data segments, want 1", n)
	}
	wantPureACKs(t, r.srvSegs(t), base+uint32(len(data)))
	r.waitAcked(t)
	if got := r.readAll(t, len(data)); !bytes.Equal(got, data) {
		t.Fatal("received bytes differ from the write")
	}
}

// TestImmediateACKs: out-of-order segments each get a duplicate ACK at
// once, a segment that fills the gap is ACKed at once, in-order data
// waits for the batch's flush, and old data is re-ACKed at once.
func TestImmediateACKs(t *testing.T) {
	r := newACKRig(t)
	c := r.conn
	c.mu.Lock()
	base, srcPort, dstPort := c.rcvNxt, c.remotePort, c.localPort
	c.mu.Unlock()
	seg := func(off uint32, payload string) tcpSegment {
		return tcpSegment{srcPort: srcPort, dstPort: dstPort,
			seq: base + off, flags: flagACK, window: 0xffff, payload: []byte(payload)}
	}
	step := func(what string, s tcpSegment, wantOwes bool, acks ...uint32) {
		t.Helper()
		if owes := c.handleSegment(s); owes != wantOwes {
			t.Fatalf("%s: handleSegment owes = %v, want %v", what, owes, wantOwes)
		}
		wantPureACKs(t, r.srvSegs(t), acks...)
	}
	step("out of order", seg(8, "charlie!"), false, base)
	step("out of order", seg(4, "bob!"), false, base)
	step("gap fill", seg(0, "alf!"), false, base+16)
	step("in order", seg(16, "dave"), true)
	c.flushACK()
	wantPureACKs(t, r.srvSegs(t), base+20)
	step("old data", seg(0, "alf!"), false, base+20)
	c.flushACK() // owes nothing: sends nothing
	wantPureACKs(t, r.srvSegs(t))
	if got := string(r.readAll(t, 20)); got != "alf!bob!charlie!dave" {
		t.Errorf("reassembled %q", got)
	}
}

// TestReplyCarriesOwedACK: a reply written after the batch's demux and
// before its flush carries the ACK, and no pure ACK follows. The test
// runs serveBatch's two halves itself, with the reply between them.
func TestReplyCarriesOwedACK(t *testing.T) {
	r := newACKRig(t)
	base := r.rcvNxt()
	if _, err := r.cli.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	frames, err := r.srv.port.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var owed []*TCB
	for _, f := range frames {
		if c := r.srv.handleFrameView(f); c != nil {
			owed = append(owed, c)
		}
	}
	if len(owed) != 1 || owed[0] != r.conn {
		t.Fatalf("batch left %d TCBs owing an ACK, want the server end", len(owed))
	}
	wantPureACKs(t, r.srvSegs(t)) // nothing sent yet
	if _, err := r.conn.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	for _, c := range owed {
		c.flushACK()
	}
	segs := r.srvSegs(t)
	if len(segs) != 1 || segs[0].n != 4 || segs[0].ack != base+4 || segs[0].flags&flagACK == 0 {
		t.Fatalf("server sent %+v, want one 4-byte reply acknowledging %d", segs, base+4)
	}
	r.waitAcked(t)
	buf := make([]byte, 8)
	n, err := r.cli.ReadDeadline(buf, time.Now().Add(5*time.Second))
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
}

// TestLostBatchACKRecovers: the fault plan drops a batch's one ACK. The
// transfer still completes, by the sender's retransmission (old data is
// re-ACKed at once) or by the ACK the next segment earns.
func TestLostBatchACKRecovers(t *testing.T) {
	loseNextACK := func(t *testing.T, r *ackRig, data []byte) {
		t.Helper()
		if _, err := r.cli.Write(data); err != nil {
			t.Fatal(err)
		}
		lost := r.hub.FaultStats().LostGood
		if err := r.hub.SetFaultPlan(&netsim.FaultPlan{Seed: 1, LossGoodPct: 100}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.srv.serveBatch(nil); err != nil {
			t.Fatal(err)
		}
		if err := r.hub.SetFaultPlan(nil); err != nil {
			t.Fatal(err)
		}
		if n := r.hub.FaultStats().LostGood - lost; n != 1 {
			t.Fatalf("fault plan dropped %d frames, want the one ACK", n)
		}
	}
	t.Run("retransmit", func(t *testing.T) {
		r := newACKRig(t)
		data := patterned(4 * tcpMSS)
		loseNextACK(t, r, data)
		r.pump()
		defer r.stopPump()
		r.waitAcked(t)
		if r.cliRetx.Value() == 0 {
			t.Error("client acknowledged without a retransmission, but its only ACK was lost")
		}
		if got := r.readAll(t, len(data)); !bytes.Equal(got, data) {
			t.Fatal("received bytes differ from the write")
		}
	})
	t.Run("next segment", func(t *testing.T) {
		r := newACKRig(t)
		data := patterned(5 * tcpMSS)
		loseNextACK(t, r, data[:4*tcpMSS])
		r.pump()
		defer r.stopPump()
		if _, err := r.cli.Write(data[4*tcpMSS:]); err != nil {
			t.Fatal(err)
		}
		r.waitAcked(t)
		if got := r.readAll(t, len(data)); !bytes.Equal(got, data) {
			t.Fatal("received bytes differ from the write")
		}
	})
}
