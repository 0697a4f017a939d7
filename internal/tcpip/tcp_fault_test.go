package tcpip

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/netsim"
)

// faultTransfer pushes size patterned bytes from stacks[1] to a client
// on stacks[0] with plan active during the data phase (installed only
// after the handshake, like TestTCPBulkTransferWithLoss, so connection
// setup stays deterministic). The accepting side holds its Write until
// the plan is in, so every data frame meets it. Returns the receiving
// TCB and the bytes that arrived; the caller asserts integrity.
func faultTransfer(t *testing.T, hub *netsim.Hub, stacks []*Stack, size int, plan *netsim.FaultPlan) (*TCB, []byte) {
	t.Helper()
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*13 + i>>8)
	}
	l, err := stacks[1].Listen(8080, 1)
	if err != nil {
		t.Fatal(err)
	}
	planSet := make(chan struct{})
	go func() {
		for {
			conn, err := l.Accept(60 * time.Second)
			if err != nil {
				return
			}
			go func(c *TCB) {
				<-planSet
				c.Write(want)
				c.Close()
			}(conn)
		}
	}()
	conn, err := stacks[0].Connect(stacks[1].Addr(), 8080, 15*time.Second)
	if err != nil {
		close(planSet)
		t.Fatal(err)
	}
	err = hub.SetFaultPlan(plan)
	close(planSet)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.SetFaultPlan(nil)
	var got bytes.Buffer
	buf := make([]byte, 8192)
	deadline := time.Now().Add(30 * time.Second)
	for {
		n, err := conn.ReadDeadline(buf, deadline)
		got.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read after %d bytes: %v", got.Len(), err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", got.Len(), size)
	}
	return conn, got.Bytes()
}

// TestTCPRetransmissionUnderReordering: bounded reordering on the wire
// must be absorbed by the reassembly queue — byte-exact delivery, and
// the out-of-order buffer fully drained once the stream ends.
func TestTCPRetransmissionUnderReordering(t *testing.T) {
	hub, stacks := testNet(t, 2)
	conn, _ := faultTransfer(t, hub, stacks, 64*1024, &netsim.FaultPlan{
		Seed: 42, ReorderPct: 25, ReorderDepth: 5,
	})
	conn.mu.Lock()
	oooLeft := len(conn.ooo)
	conn.mu.Unlock()
	if oooLeft != 0 {
		t.Errorf("ooo queue holds %d segments after EOF, want 0", oooLeft)
	}
	if st := hub.FaultStats(); st.Reordered == 0 {
		t.Error("fault plan never reordered a frame; test exercised nothing")
	}
}

// TestTCPNoDoubleDeliveryUnderDuplication: duplicated segments are
// old-ACK noise to the receiver; the byte stream must come out exactly
// once. bytes.Equal in faultTransfer catches both corruption and any
// double delivery (the stream would be longer than size).
func TestTCPNoDoubleDeliveryUnderDuplication(t *testing.T) {
	hub, stacks := testNet(t, 2)
	faultTransfer(t, hub, stacks, 64*1024, &netsim.FaultPlan{
		Seed: 43, DupPct: 40,
	})
	if st := hub.FaultStats(); st.Duplicated == 0 {
		t.Error("fault plan never duplicated a frame; test exercised nothing")
	}
}

// TestTCPRecoveryUnderCombinedFaults drives a transfer through burst
// loss, corruption (dropped at the IP checksum, so loss with extra
// steps), duplication and reordering at once — the full weather the
// chaos soak later relies on.
func TestTCPRecoveryUnderCombinedFaults(t *testing.T) {
	hub, stacks := testNet(t, 2)
	faultTransfer(t, hub, stacks, 32*1024, &netsim.FaultPlan{
		Seed:        44,
		LossGoodPct: 2, LossBadPct: 30, GoodToBadPct: 3, BadToGoodPct: 30,
		CorruptPct: 3, DupPct: 10, ReorderPct: 10, ReorderDepth: 4,
	})
	st := hub.FaultStats()
	if st.LostGood+st.LostBurst == 0 || st.Corrupted == 0 {
		t.Errorf("fault mix too quiet to test recovery: %+v", st)
	}
}

// TestTCPCloseWriteRequestResponse exercises shutdown(SHUT_WR) at the
// raw TCP level: FIN out, response still readable.
func TestTCPCloseWriteRequestResponse(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, err := stacks[1].Listen(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept(5 * time.Second)
		if err != nil {
			return
		}
		var req []byte
		buf := make([]byte, 256)
		for {
			n, err := conn.ReadDeadline(buf, time.Now().Add(5*time.Second))
			req = append(req, buf[:n]...)
			if err != nil {
				break
			}
		}
		conn.Write(append([]byte("echo:"), req...))
		conn.Close()
	}()
	cli, err := stacks[0].Connect(stacks[1].Addr(), 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := cli.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write([]byte("late")); err == nil {
		t.Error("write succeeded after CloseWrite")
	}
	var resp []byte
	buf := make([]byte, 64)
	for {
		n, err := cli.ReadDeadline(buf, time.Now().Add(5*time.Second))
		resp = append(resp, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	if string(resp) != "echo:hi" {
		t.Errorf("response = %q", resp)
	}
}

// TestTCPRetransmitsUnderSteadyWrites: the retransmission timer runs
// from the oldest unacknowledged segment (RFC 6298 §5.1), so a sender
// that keeps writing still retransmits a lost segment one RTO later.
// The sender writes one byte every 50 ms and the receiver's port is
// cut off for one of those writes; every byte must reach the reader in
// order within 1 s of its write, while the writes go on.
func TestTCPRetransmitsUnderSteadyWrites(t *testing.T) {
	hub, stacks := testNet(t, 2)
	l, err := stacks[1].Listen(8081, 1)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *TCB, 1)
	go func() {
		if c, err := l.Accept(5 * time.Second); err == nil {
			accepted <- c
		}
	}()
	snd, err := stacks[0].Connect(stacks[1].Addr(), 8081, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	var rcv *TCB
	select {
	case rcv = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("no connection accepted")
	}
	defer rcv.Close()

	const writes, lost, gap = 40, 5, 50 * time.Millisecond
	written := make([]time.Time, writes)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < writes; i++ {
			if i == lost {
				if err := hub.PartitionPort(stacks[1].MAC(), gap/2); err != nil {
					done <- err
					return
				}
			}
			written[i] = time.Now()
			if _, err := snd.Write([]byte{byte(i)}); err != nil {
				done <- err
				return
			}
			time.Sleep(gap)
		}
		done <- nil
	}()

	arrived := make([]time.Time, 0, writes)
	buf := make([]byte, writes)
	for len(arrived) < writes {
		n, err := rcv.ReadDeadline(buf, time.Now().Add(5*time.Second))
		now := time.Now()
		for _, b := range buf[:n] {
			if int(b) != len(arrived) {
				t.Fatalf("read byte %d where byte %d was due", b, len(arrived))
			}
			arrived = append(arrived, now)
		}
		if err != nil {
			t.Fatalf("read after %d bytes: %v", len(arrived), err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, at := range arrived {
		if d := at.Sub(written[i]); d > time.Second {
			t.Fatalf("byte %d read %v after its write, want within 1s", i, d.Round(time.Millisecond))
		}
	}
	if hub.FaultStats().PartitionDrops == 0 {
		t.Error("the partition dropped nothing; the test exercised nothing")
	}
}
