package netsim

// Port receive coverage: Drain batching, overflow policy, close
// semantics, and delivery through the fault plan and the delay line.
// Plus the delivery benchmark.

import (
	"bytes"
	"testing"
	"time"
)

// drainOne waits until the port yields at least one frame.
func drainOne(t *testing.T, p *Port) []EthFrame {
	t.Helper()
	timeout := time.After(2 * time.Second)
	for {
		select {
		case <-p.Ready():
			frames, err := p.Drain()
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if len(frames) > 0 {
				return frames
			}
		case <-timeout:
			t.Fatal("timed out draining port")
		}
	}
}

func TestRingDelivery(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	b, err := h.Attach(mac(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Frame{Dst: mac(2), EtherType: EtherTypeIPv4, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	frames := drainOne(t, b)
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(frames))
	}
	f := frames[0]
	if fr := copyFrame(f); fr.Dst != mac(2) || fr.Src != mac(1) || fr.EtherType != EtherTypeIPv4 {
		t.Errorf("header mismatch: dst %s src %s type %#x", fr.Dst, fr.Src, fr.EtherType)
	}
	if !bytes.Equal(f.Payload(), []byte("hi")) {
		t.Errorf("payload = %q", f.Payload())
	}
	if len(f.b) != EthHeaderLen+2 {
		t.Errorf("frame length = %d", len(f.b))
	}
}

func TestRingBatchesUnderOneDrain(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	const n = 20
	for i := 0; i < n; i++ {
		a.Send(Frame{Dst: mac(2), Payload: []byte{byte(i)}})
	}
	got := 0
	for got < n {
		frames := drainOne(t, b)
		for _, f := range frames {
			if f.Payload()[0] != byte(got) {
				t.Fatalf("frame %d carries payload %d (reordered?)", got, f.Payload()[0])
			}
			got++
		}
		// All n sends completed before the first drain, so the whole
		// batch must arrive in one swap.
		if got != n {
			t.Fatalf("drain returned %d frames, want all %d in one batch", got, n)
		}
	}
}

func TestRingOverflowDropsNotBlocks(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	h.Attach(mac(2)) // never drained
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
		t.Fatal("sender blocked on full ring")
	}
	_, dropped := h.Stats()
	if dropped == 0 {
		t.Error("no drops recorded despite ring overflow")
	}
}

func TestRingCloseDrainsLeftoversThenErrors(t *testing.T) {
	h := NewHub()
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	a.Send(Frame{Dst: mac(2), Payload: []byte("last")})
	h.Close()
	// Frames enqueued before close must still come out...
	frames, err := b.Drain()
	if err != nil {
		t.Fatalf("drain after close lost buffered frame: %v", err)
	}
	if len(frames) != 1 || string(frames[0].Payload()) != "last" {
		t.Fatalf("got %d frames", len(frames))
	}
	// ...and only then does the port report closed.
	if _, err := b.Drain(); err != ErrPortClosed {
		t.Fatalf("drain on closed empty ring: err = %v, want ErrPortClosed", err)
	}
}

// TestRingReadyClosesWithPort: a receiver ranging over Ready gets the
// frames queued before the port closed and then leaves its loop.
func TestRingReadyClosesWithPort(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	if frames, err := b.Drain(); len(frames) != 0 || err != nil {
		t.Fatalf("Drain on an idle port = %d frames, %v; want none, nil", len(frames), err)
	}
	a.Send(Frame{Dst: mac(2), Payload: []byte("last")})
	b.Close()
	got := make(chan int, 1)
	go func() {
		n := 0
		for range b.Ready() {
			frames, _ := b.Drain()
			n += len(frames)
		}
		got <- n
	}()
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("receiver drained %d frames, want the 1 queued before close", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Ready stayed open after the port closed")
	}
}

func TestRingPayloadIsolation(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	payload := []byte("mutate-me")
	a.Send(Frame{Dst: mac(2), Payload: payload})
	// Sender scribbling on its buffer after Send must not corrupt the
	// delivered bytes — the fast path copies into the ring slab under
	// the hub lock before Send returns.
	payload[0] = 'X'
	frames := drainOne(t, b)
	if string(frames[0].Payload()) != "mutate-me" {
		t.Errorf("ring saw sender's post-Send mutation: %q", frames[0].Payload())
	}
}

func TestRingReceivesViaLatencySlowPath(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetLatency(5 * time.Millisecond)
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	start := time.Now()
	a.Send(Frame{Dst: mac(2), Payload: []byte("late")})
	frames := drainOne(t, b)
	if string(frames[0].Payload()) != "late" {
		t.Fatalf("payload = %q", frames[0].Payload())
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("latency not applied to ring delivery: %v", elapsed)
	}
}

func TestRingReceivesViaFaultSlowPath(t *testing.T) {
	h := NewHub()
	defer h.Close()
	// Duplication forces the faultState path; everything must still
	// land in the ring, twice.
	if err := h.SetFaultPlan(&FaultPlan{Seed: 1, DupPct: 100}); err != nil {
		t.Fatal(err)
	}
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	a.Send(Frame{Dst: mac(2), Payload: []byte("twin")})
	got := 0
	deadline := time.Now().Add(2 * time.Second)
	for got < 2 && time.Now().Before(deadline) {
		for _, f := range drainOne(t, b) {
			if string(f.Payload()) != "twin" {
				t.Fatalf("payload = %q", f.Payload())
			}
			got++
		}
	}
	if got != 2 {
		t.Fatalf("got %d copies, want 2", got)
	}
}

func TestRingPartitionDrops(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	if err := h.PartitionPort(mac(2), 0); err != nil {
		t.Fatal(err)
	}
	a.Send(Frame{Dst: mac(2), Payload: []byte("void")})
	h.HealPort(mac(2))
	a.Send(Frame{Dst: mac(2), Payload: []byte("ok")})
	frames := drainOne(t, b)
	if len(frames) != 1 || string(frames[0].Payload()) != "ok" {
		t.Fatalf("partitioned frame leaked through: %d frames", len(frames))
	}
}

// BenchmarkRingDelivery is one send/receive round trip through a port:
// the only copy is into the receiver's slab, and steady state makes no
// allocation. This is the EXPERIMENTS.md E14 ingress number.
func BenchmarkRingDelivery(b *testing.B) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	r, _ := h.Attach(mac(2))
	payload := make([]byte, 512)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	got := 0
	for i := 0; i < b.N; i++ {
		if err := a.Send(Frame{Dst: mac(2), EtherType: EtherTypeIPv4, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 || i == b.N-1 {
			for got <= i {
				frames, err := r.Drain()
				if err != nil {
					b.Fatal(err)
				}
				got += len(frames)
			}
		}
	}
}
