package netsim

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestFaultPlanValidation(t *testing.T) {
	h := NewHub()
	defer h.Close()
	if err := h.SetFaultPlan(&FaultPlan{CorruptPct: 101}); err == nil {
		t.Error("out-of-range CorruptPct accepted")
	}
	if err := h.SetFaultPlan(&FaultPlan{LossBadPct: -1}); err == nil {
		t.Error("negative LossBadPct accepted")
	}
	if err := h.SetFaultPlan(&FaultPlan{ReorderDepth: -2}); err == nil {
		t.Error("negative ReorderDepth accepted")
	}
	if err := h.SetFaultPlan(&FaultPlan{Seed: 1, DupPct: 10}); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := h.SetFaultPlan(nil); err != nil {
		t.Errorf("clearing plan: %v", err)
	}
}

func TestClosedPortSendTypedError(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	b.Close()
	if err := b.Send(Frame{Dst: mac(1)}); err != ErrPortClosed {
		t.Errorf("send on closed port = %v, want ErrPortClosed", err)
	}
	// Frames to the detached port vanish without panicking.
	if err := a.Send(Frame{Dst: mac(2), Payload: []byte("gone")}); err != nil {
		t.Errorf("send to closed port = %v", err)
	}
	if _, err := b.Drain(); err != ErrPortClosed {
		t.Errorf("Drain on closed port = %v, want ErrPortClosed", err)
	}
	// The hub itself is still alive for other traffic.
	c, err := h.Attach(mac(3))
	if err != nil {
		t.Fatal(err)
	}
	a.Send(Frame{Dst: mac(3), Payload: []byte("alive")})
	if f := recvWithTimeout(t, c); string(f.Payload) != "alive" {
		t.Errorf("post-detach delivery got %q", f.Payload)
	}
}

func TestBurstLossGilbertElliott(t *testing.T) {
	h := NewHub()
	defer h.Close()
	// Always-Bad chain with certain loss: everything drops.
	if err := h.SetFaultPlan(&FaultPlan{Seed: 9, GoodToBadPct: 100, LossBadPct: 100}); err != nil {
		t.Fatal(err)
	}
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	for i := 0; i < 20; i++ {
		a.Send(Frame{Dst: mac(2), Payload: []byte{byte(i)}})
	}
	if got := drain(b, 50*time.Millisecond); len(got) != 0 {
		t.Errorf("%d frames survived a total burst", len(got))
	}
	st := h.FaultStats()
	// Frame 1 transitions Good->Bad before its loss draw, so all 20 are
	// burst losses.
	if st.LostBurst != 20 || st.BadEntries != 1 {
		t.Errorf("stats = %+v, want 20 burst losses after 1 bad entry", st)
	}

	// Bursty pattern: long quiet spells punctuated by lossy episodes.
	h2 := NewHub()
	defer h2.Close()
	h2.SetFaultPlan(&FaultPlan{Seed: 123, GoodToBadPct: 5, BadToGoodPct: 30, LossBadPct: 90})
	a2, _ := h2.Attach(mac(1))
	b2, _ := h2.Attach(mac(2))
	// Stay under rxQueueDepth: the receiver drains only afterwards.
	const n = 250
	for i := 0; i < n; i++ {
		a2.Send(Frame{Dst: mac(2), Payload: []byte{byte(i)}})
	}
	got := drain(b2, 100*time.Millisecond)
	st2 := h2.FaultStats()
	if st2.LostBurst == 0 || st2.BadEntries == 0 {
		t.Errorf("no burst losses recorded: %+v", st2)
	}
	if st2.LostGood != 0 {
		t.Errorf("good-state losses with LossGoodPct=0: %+v", st2)
	}
	if len(got)+int(st2.LostBurst) != n {
		t.Errorf("delivered %d + lost %d != sent %d", len(got), st2.LostBurst, n)
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetFaultPlan(&FaultPlan{Seed: 7, CorruptPct: 100})
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	orig := []byte("checksummed payload bytes")
	a.Send(Frame{Dst: mac(2), Payload: append([]byte(nil), orig...)})
	f := recvWithTimeout(t, b)
	diff := 0
	for i := range orig {
		x := orig[i] ^ f.Payload[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corruption flipped %d bits, want exactly 1", diff)
	}
	if h.FaultStats().Corrupted != 1 {
		t.Errorf("Corrupted = %d", h.FaultStats().Corrupted)
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetFaultPlan(&FaultPlan{Seed: 3, DupPct: 100})
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	a.Send(Frame{Dst: mac(2), Payload: []byte("twice")})
	got := drain(b, 50*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(got))
	}
	if !bytes.Equal(got[0].Payload, got[1].Payload) {
		t.Error("duplicate differs from original")
	}
}

func TestReorderingIsBoundedAndLossless(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetFaultPlan(&FaultPlan{Seed: 42, ReorderPct: 40, ReorderDepth: 4})
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	const n = 200
	for i := 0; i < n; i++ {
		a.Send(Frame{Dst: mac(2), Payload: []byte{byte(i)}})
	}
	// Flush: clean tail frames release any still-held ones.
	h.SetFaultPlan(nil)
	for i := 0; i < 20; i++ {
		a.Send(Frame{Dst: mac(3), Payload: []byte{0xff}})
	}
	got := drain(b, 100*time.Millisecond)
	seen := map[byte]int{}
	outOfOrder := 0
	last := -1
	for _, f := range got {
		if f.Dst != mac(2) {
			continue
		}
		v := int(f.Payload[0])
		seen[byte(v)]++
		if v < last {
			outOfOrder++
		}
		if v > last {
			last = v
		}
	}
	if outOfOrder == 0 {
		t.Error("no reordering observed at 40%")
	}
	// Reordering must not lose or duplicate anything.
	for i := 0; i < n; i++ {
		if seen[byte(i)] != 1 {
			t.Fatalf("frame %d delivered %d times", i, seen[byte(i)])
		}
	}
}

func TestPartitionDropsBothDirectionsThenHeals(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetFaultPlan(&FaultPlan{Seed: 1})
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	if err := h.PartitionPort(mac(9), time.Second); err == nil {
		t.Error("partitioning unknown MAC accepted")
	}
	if err := h.PartitionPort(mac(2), 0); err != nil {
		t.Fatal(err)
	}
	if !partitioned(h, mac(2)) {
		t.Error("not partitioned after PartitionPort")
	}
	a.Send(Frame{Dst: mac(2), Payload: []byte("in")})
	b.Send(Frame{Dst: mac(1), Payload: []byte("out")})
	if got := drain(a, 30*time.Millisecond); len(got) != 0 {
		t.Error("frame escaped the partition outbound")
	}
	if got := drain(b, 30*time.Millisecond); len(got) != 0 {
		t.Error("frame crossed the partition inbound")
	}
	if h.FaultStats().PartitionDrops != 2 {
		t.Errorf("PartitionDrops = %d, want 2", h.FaultStats().PartitionDrops)
	}
	h.HealPort(mac(2))
	a.Send(Frame{Dst: mac(2), Payload: []byte("healed")})
	if f := recvWithTimeout(t, b); string(f.Payload) != "healed" {
		t.Errorf("post-heal delivery got %q", f.Payload)
	}
}

func TestPartitionHealsOnSchedule(t *testing.T) {
	h := NewHub()
	defer h.Close()
	// Drive the heal schedule with a manual clock: no wall-clock sleep,
	// no timing flake — the partition heals exactly when we say time
	// has passed.
	clk := telemetry.NewManualClock(0)
	h.SetClock(clk)
	a, _ := h.Attach(mac(1))
	b, _ := h.Attach(mac(2))
	if err := h.PartitionPort(mac(2), 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	a.Send(Frame{Dst: mac(2), Payload: []byte("lost")})
	if !partitioned(h, mac(2)) {
		t.Fatal("partition not active before its heal time")
	}
	clk.Advance(uint64(80 * time.Millisecond))
	a.Send(Frame{Dst: mac(2), Payload: []byte("after")})
	got := drain(b, 50*time.Millisecond)
	if len(got) != 1 || string(got[0].Payload) != "after" {
		t.Errorf("scheduled heal delivered %d frames", len(got))
	}
	if partitioned(h, mac(2)) {
		t.Error("partition persists past its heal time")
	}
}

// TestFaultScheduleReproducible is the determinism contract: the same
// seed over the same send sequence yields bit-identical deliveries and
// identical fault counters — what makes a chaos run debuggable.
func TestFaultScheduleReproducible(t *testing.T) {
	run := func() ([]Frame, FaultStats, uint64, uint64) {
		h := NewHub()
		defer h.Close()
		h.SetFaultPlan(&FaultPlan{
			Seed:         0xC0FFEE,
			LossGoodPct:  2,
			LossBadPct:   80,
			GoodToBadPct: 10,
			BadToGoodPct: 25,
			CorruptPct:   15,
			DupPct:       10,
			ReorderPct:   20,
			ReorderDepth: 5,
		})
		a, _ := h.Attach(mac(1))
		b, _ := h.Attach(mac(2))
		for i := 0; i < 500; i++ {
			a.Send(Frame{Dst: mac(2), Payload: []byte{byte(i), byte(i >> 8), 0xAA}})
		}
		got := drain(b, 100*time.Millisecond)
		sent, dropped := h.Stats()
		return got, h.FaultStats(), sent, dropped
	}
	g1, s1, sent1, drop1 := run()
	g2, s2, sent2, drop2 := run()
	if s1 != s2 {
		t.Errorf("fault stats differ across runs:\n%+v\n%+v", s1, s2)
	}
	if sent1 != sent2 || drop1 != drop2 {
		t.Errorf("hub stats differ: %d/%d vs %d/%d", sent1, drop1, sent2, drop2)
	}
	if len(g1) != len(g2) {
		t.Fatalf("delivered %d vs %d frames", len(g1), len(g2))
	}
	for i := range g1 {
		if !bytes.Equal(g1[i].Payload, g2[i].Payload) {
			t.Fatalf("frame %d differs across runs", i)
		}
	}
}

// partitioned reports whether the MAC is currently cut off.
func partitioned(h *Hub, m MAC) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.partitionedLocked(m, h.nowLocked())
}
