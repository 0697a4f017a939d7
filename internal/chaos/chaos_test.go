package chaos

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/rasm"
	"repro/internal/rmc2000"
	"repro/internal/tcpip"
)

const (
	echoPort = 4443
	soakPSK  = "chaos-soak-preshared-secret"
)

// world builds a hub with a client stack (.1) and a server stack (.2).
func world(t *testing.T) (*netsim.Hub, *tcpip.Stack, *tcpip.Stack) {
	t.Helper()
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	mk := func(last byte) *tcpip.Stack {
		s, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	return hub, mk(1), mk(2)
}

// dialer builds an issl.Dialer that connects cli to the echo server.
func dialer(cli *tcpip.Stack, server tcpip.Addr, seed uint64) *issl.Dialer {
	return &issl.Dialer{
		Dial: func() (io.ReadWriteCloser, error) {
			return cli.Connect(server, echoPort, 2*time.Second)
		},
		Config: issl.Config{
			Profile:          issl.ProfileEmbedded,
			PSK:              []byte(soakPSK),
			Rand:             prng.NewXorshift(seed),
			HandshakeTimeout: 5 * time.Second,
		},
		Policy: issl.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    time.Second,
		},
	}
}

// echoChunk writes chunk and reads it back in full, bounded by d.
func echoChunk(conn *issl.Conn, chunk []byte, d time.Duration) error {
	if _, err := conn.Write(chunk); err != nil {
		return err
	}
	got := make([]byte, 0, len(chunk))
	buf := make([]byte, len(chunk))
	conn.SetReadDeadline(time.Now().Add(d))
	defer conn.SetReadDeadline(time.Time{})
	for len(got) < len(chunk) {
		n, err := conn.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return err
		}
	}
	if !bytes.Equal(got, chunk) {
		return fmt.Errorf("chaos: echo mismatch: %d bytes back", len(got))
	}
	return nil
}

// abortTransport kills the TCP under a failed secure connection so the
// next dial starts from a clean slate.
func abortTransport(tr io.ReadWriteCloser) {
	if tcb, ok := tr.(*tcpip.TCB); ok {
		tcb.Abort()
		return
	}
	tr.Close()
}

// TestChaosSoak is the acceptance soak: 64 KB echoed byte-exact
// through a hub running burst loss, corruption, duplication and
// reordering at once, with the server yanked off the wire for two
// seconds mid-transfer. The client recovers every failure through
// DialWithRetry and must land at least one abbreviated resumption.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	hub, cli, srvStack := world(t)
	srv, err := newEchoServer(srvStack, echoPort, []byte(soakPSK), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := hub.SetFaultPlan(SoakPlan(0xC4A05)); err != nil {
		t.Fatal(err)
	}

	const (
		total     = 64 * 1024
		chunkSize = 1024
	)
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i*131 + i>>9)
	}

	d := dialer(cli, srvStack.Addr(), 77)
	conn, tr, err := d.DialWithRetry()
	if err != nil {
		t.Fatalf("initial dial: %v", err)
	}

	budget := time.Now().Add(90 * time.Second)
	reconnects := 0
	echoed := make([]byte, 0, total)
	partitioned := false
	for off := 0; off < total; {
		if time.Now().After(budget) {
			t.Fatalf("transfer stalled beyond recovery budget: %d/%d bytes after %d reconnects", off, total, reconnects)
		}
		if !partitioned && off >= total/2 {
			// Unplug the server mid-transfer; the wire heals itself
			// after two seconds (the lab tech plugs it back in).
			if err := hub.PartitionPort(srvStack.MAC(), 2*time.Second); err != nil {
				t.Fatal(err)
			}
			partitioned = true
		}
		chunk := payload[off : off+chunkSize]
		if err := echoChunk(conn, chunk, 1500*time.Millisecond); err != nil {
			abortTransport(tr)
			reconnects++
			conn, tr, err = d.DialWithRetry()
			if err != nil {
				t.Fatalf("reconnect %d at offset %d: %v", reconnects, off, err)
			}
			continue // re-send the unacknowledged chunk
		}
		echoed = append(echoed, chunk...)
		off += chunkSize
	}
	conn.Close()
	tr.Close()

	if !bytes.Equal(echoed, payload) {
		t.Fatalf("soak not byte-exact: echoed %d bytes, want %d", len(echoed), total)
	}
	st := d.Stats()
	if st.Resumptions == 0 {
		t.Errorf("no abbreviated resumption across %d reconnects: %+v", reconnects, st)
	}
	fs := hub.FaultStats()
	if fs.LostGood+fs.LostBurst == 0 || fs.Corrupted == 0 || fs.Duplicated == 0 {
		t.Errorf("fault plan too quiet for a soak: %+v", fs)
	}
	if fs.PartitionDrops == 0 {
		t.Error("partition never dropped a frame; outage did not happen")
	}
	t.Logf("soak: %d reconnects, dial stats %+v, faults %+v", reconnects, st, fs)
}

// TestWatchdogRebootSessionResumption is the board-reboot chaos case:
// an rmc2000 watchdog fires mid-session (the program arms it and then
// starves it, as a wedged service would), which kills every live
// connection while the session cache — `protected` storage — survives.
// The client's reconnect must come back as an abbreviated resumption.
func TestWatchdogRebootSessionResumption(t *testing.T) {
	_, cli, srvStack := world(t)
	srv, err := newEchoServer(srvStack, echoPort, []byte(soakPSK), 2000)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	d := dialer(cli, srvStack.Addr(), 88)
	conn, tr, err := d.DialWithRetry()
	if err != nil {
		t.Fatal(err)
	}
	if conn.Resumed() {
		t.Fatal("first connection resumed out of thin air")
	}
	if err := echoChunk(conn, []byte("before the reset"), 5*time.Second); err != nil {
		t.Fatalf("pre-reset echo: %v", err)
	}

	// The watchdog fires on the simulated board: arm at 250ms, spin.
	board, err := rmc2000.New(nil, netsim.MAC{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := rasm.Assemble(`
WDTCR equ 0x08
        org 0
        ld a, 0x51         ; arm, 250ms
        ioi ld (WDTCR), a
spin:   jr spin            ; wedged service: never hits the watchdog
`)
	if err != nil {
		t.Fatal(err)
	}
	board.LoadProgram(prog.Origin, prog.Code)
	for board.WatchdogResets() < 1 && board.CPU.Cycles < 20_000_000 {
		if err := board.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if board.WatchdogResets() < 1 {
		t.Fatal("watchdog never fired")
	}
	// The reboot's service-level consequence: live connections die,
	// the protected session cache does not.
	srv.Reset()

	if err := echoChunk(conn, []byte("into the void"), 2*time.Second); err == nil {
		t.Fatal("echo succeeded across a watchdog reset")
	}
	abortTransport(tr)

	conn2, tr2, err := d.DialWithRetry()
	if err != nil {
		t.Fatalf("reconnect after reset: %v", err)
	}
	defer tr2.Close()
	defer conn2.Close()
	if !conn2.Resumed() {
		t.Error("reconnect after watchdog reset was a full handshake, not a resumption")
	}
	if err := echoChunk(conn2, []byte("after the reset"), 5*time.Second); err != nil {
		t.Fatalf("post-reset echo: %v", err)
	}
	if st := d.Stats(); st.Resumptions < 1 {
		t.Errorf("dialer stats %+v: want >= 1 resumption", st)
	}
	if total, resumed := srv.Accepted(); total < 2 || resumed < 1 {
		t.Errorf("server binds: total %d resumed %d", total, resumed)
	}
}
