package netsim

import (
	"testing"
	"time"
)

func mac(b byte) MAC { return MAC{0, 0, 0, 0, 0, b} }

// copyFrame copies a drained view out of the slab, so it outlives the
// next Drain.
func copyFrame(f EthFrame) Frame {
	fr := Frame{EtherType: f.EtherType(), Payload: append([]byte(nil), f.Payload()...)}
	copy(fr.Dst[:], f.b[0:6])
	copy(fr.Src[:], f.b[6:12])
	return fr
}

// drain collects every frame deliverable on p until none has arrived
// for the grace period or the port closes.
func drain(p *Port, grace time.Duration) []Frame {
	var got []Frame
	for {
		select {
		case <-p.Ready():
			frames, err := p.Drain()
			if err != nil {
				return got
			}
			for _, f := range frames {
				got = append(got, copyFrame(f))
			}
		case <-time.After(grace):
			return got
		}
	}
}

// recvWithTimeout waits for the next frame on p and returns the first
// one of the batch that carries it.
func recvWithTimeout(t *testing.T, p *Port) Frame {
	t.Helper()
	return copyFrame(drainOne(t, p)[0])
}

func TestUnicastDelivery(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, err := h.Attach(mac(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Attach(mac(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := h.Attach(mac(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Frame{Dst: mac(2), EtherType: EtherTypeIPv4, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	f := recvWithTimeout(t, b)
	if string(f.Payload) != "hi" || f.Src != mac(1) || f.EtherType != EtherTypeIPv4 {
		t.Errorf("got frame %+v", f)
	}
	if got := drain(c, 50*time.Millisecond); len(got) != 0 {
		t.Errorf("unicast leaked to third port: %+v", got[0])
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	c, _ := h.Attach(mac(3))
	a.Send(Frame{Dst: Broadcast, Payload: []byte("arp?")})
	recvWithTimeout(t, b)
	recvWithTimeout(t, c)
	if got := drain(a, 50*time.Millisecond); len(got) != 0 {
		t.Error("broadcast looped back to sender")
	}
}

func TestSourceAddressForced(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	a.Send(Frame{Dst: mac(2), Src: mac(9) /* spoofed */})
	f := recvWithTimeout(t, b)
	if f.Src != mac(1) {
		t.Errorf("src = %s, want port MAC", f.Src)
	}
}

func TestDuplicateMACRejected(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.Attach(mac(1))
	if _, err := h.Attach(mac(1)); err == nil {
		t.Error("duplicate MAC accepted")
	}
}

// TestPayloadIsolation: the sender may reuse its buffer once Send
// returns, whether the frame fanned out inline, waits on the delay
// line, or is held back for reordering.
func TestPayloadIsolation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(h *Hub)
	}{
		{"inline", func(h *Hub) {}},
		{"delay line", func(h *Hub) { h.SetLatency(20 * time.Millisecond) }},
		{"held", func(h *Hub) { h.SetFaultPlan(&FaultPlan{Seed: 1, ReorderPct: 100}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHub()
			defer h.Close()
			tc.setup(h)
			a, _ := h.Attach(mac(1))
			b, _ := h.Attach(mac(2))
			buf := []byte("original")
			a.Send(Frame{Dst: mac(2), Payload: buf})
			buf[0] = 'X'        // mutate after send
			h.SetFaultPlan(nil) // puts a held frame on the wire
			f := recvWithTimeout(t, b)
			if string(f.Payload) != "original" {
				t.Errorf("receiver saw sender's mutation: %q", f.Payload)
			}
		})
	}
}

func TestLatency(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetLatency(60 * time.Millisecond)
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	start := time.Now()
	a.Send(Frame{Dst: mac(2), Payload: []byte("slow")})
	recvWithTimeout(t, b)
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("frame arrived after %v, expected >=50ms", d)
	}
}

// TestLatencyWireKeepsSendOrder: a latency wire delays frames, it does
// not reorder them. Back-to-back sends leave the delay line in send
// order.
func TestLatencyWireKeepsSendOrder(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetLatency(time.Millisecond)
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	const n = 200 // under rxQueueDepth: nothing overflows before the drain
	for i := 0; i < n; i++ {
		a.Send(Frame{Dst: mac(2), Payload: []byte{byte(i)}})
	}
	got := drain(b, 200*time.Millisecond)
	if len(got) != n {
		t.Fatalf("delivered %d of %d frames", len(got), n)
	}
	// An inversion is a frame arriving after one sent later than it.
	inversions, last := 0, -1
	for _, f := range got {
		if v := int(f.Payload[0]); v < last {
			inversions++
		} else {
			last = v
		}
	}
	if inversions > 0 {
		t.Errorf("%d of %d frames arrived after a later-sent frame", inversions, n)
	}
}

func TestTotalLoss(t *testing.T) {
	h := NewHub()
	defer h.Close()
	if err := h.SetFaultPlan(&FaultPlan{Seed: 42, LossGoodPct: 100}); err != nil {
		t.Fatal(err)
	}
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	for i := 0; i < 10; i++ {
		a.Send(Frame{Dst: mac(2), Payload: []byte{byte(i)}})
	}
	if got := drain(b, 50*time.Millisecond); len(got) != 0 {
		t.Errorf("frame delivered despite 100%% loss: %+v", got[0])
	}
	if _, dropped := h.Stats(); dropped != 10 {
		t.Errorf("dropped = %d, want 10", dropped)
	}
}

func TestPartialLossApproximatesRate(t *testing.T) {
	h := NewHub()
	defer h.Close()
	if err := h.SetFaultPlan(&FaultPlan{Seed: 7, LossGoodPct: 30}); err != nil {
		t.Fatal(err)
	}
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	const n = 2000
	counted := make(chan int)
	go func() { counted <- len(drain(b, 200*time.Millisecond)) }()
	for i := 0; i < n; i++ {
		a.Send(Frame{Dst: mac(2)})
		if i%100 == 99 {
			time.Sleep(time.Millisecond) // let the drain goroutine run
		}
	}
	got := <-counted
	if got < n*60/100 || got > n*80/100 {
		t.Errorf("delivered %d of %d at 30%% loss", got, n)
	}
}

func TestClosedHubRejectsTraffic(t *testing.T) {
	h := NewHub()
	a, _ := h.Attach(mac(1))
	h.Close()
	if err := a.Send(Frame{Dst: mac(2)}); err != ErrHubClosed {
		t.Errorf("Send after close = %v, want ErrHubClosed", err)
	}
	if _, err := h.Attach(mac(3)); err != ErrHubClosed {
		t.Errorf("Attach after close = %v, want ErrHubClosed", err)
	}
	// The port must report closed so its drainer unblocks.
	if _, err := a.Drain(); err != ErrPortClosed {
		t.Errorf("Drain after hub close = %v, want ErrPortClosed", err)
	}
}

func TestRxOverflowDropsNotBlocks(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	h.Attach(mac(2)) // receiver that never drains
	done := make(chan struct{})
	go func() {
		for i := 0; i < rxQueueDepth+50; i++ {
			a.Send(Frame{Dst: mac(2)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sender blocked on full receive queue")
	}
	_, dropped := h.Stats()
	if dropped == 0 {
		t.Error("no drops recorded despite overflow")
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Errorf("String() = %s", m)
	}
}

func TestPromiscuousPortSeesUnicast(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	h.Attach(mac(2))
	sniffer, err := h.AttachPromiscuous(mac(9))
	if err != nil {
		t.Fatal(err)
	}
	a.Send(Frame{Dst: mac(2), Payload: []byte("private?")})
	f := recvWithTimeout(t, sniffer)
	if string(f.Payload) != "private?" {
		t.Errorf("sniffer got %q", f.Payload)
	}
	// A normal port still does not see other hosts' unicast.
	b2, _ := h.Attach(mac(3))
	a.Send(Frame{Dst: mac(2), Payload: []byte("again")})
	if got := drain(b2, 50*time.Millisecond); len(got) != 0 {
		t.Errorf("non-promiscuous port saw %q", got[0].Payload)
	}
}
