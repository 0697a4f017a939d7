package chaos

// The end-to-end allocation pin for the zero-copy ingress work: one
// secure echo round trip — client seal+write, netsim ring delivery,
// server stack demux, in-place record open, echo back, client read —
// must allocate nothing at steady state. AllocsPerRun counts mallocs
// process-wide, so every goroutine on the path (both stacks' receive
// and timer loops, the server's echo loop) is inside the measurement.
//
// The harness is echoServer's layering without its bookkeeping. It
// runs twice: with no deadlines, and with a deadline on every read at
// both ends, as echoServer's idle limit sets one. A deadline wait
// re-arms the TCB's one wake timer, so it must allocate nothing either.

import (
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/race"
	"repro/internal/tcpip"
)

func TestEchoRoundTripZeroAlloc(t *testing.T) { echoRoundTripZeroAlloc(t, false) }

func TestEchoRoundTripZeroAllocReadDeadline(t *testing.T) { echoRoundTripZeroAlloc(t, true) }

// echoRoundTripZeroAlloc pins one secure echo round trip at 0 allocs;
// with deadline set, every read at both ends carries a deadline.
func echoRoundTripZeroAlloc(t *testing.T, deadline bool) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	hub := netsim.NewHub()
	defer hub.Close()
	srvStack, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	cliStack, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	psk := []byte("paper-embedded-psk-0123456789ab")
	lst, err := srvStack.Listen(4433, 1)
	if err != nil {
		t.Fatal(err)
	}

	ready := make(chan *issl.Conn, 1)
	go func() {
		tcb, err := lst.Accept(5 * time.Second)
		if err != nil {
			ready <- nil
			return
		}
		conn, err := issl.BindServer(tcb, issl.Config{
			Profile: issl.ProfileEmbedded,
			PSK:     psk,
			Rand:    prng.NewXorshift(2),
		})
		if err != nil {
			ready <- nil
			return
		}
		ready <- conn
		buf := make([]byte, 4096)
		for {
			if deadline {
				conn.SetReadDeadline(time.Now().Add(time.Minute))
			}
			n, err := conn.Read(buf)
			if n > 0 {
				if _, werr := conn.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()

	tcb, err := cliStack.Connect(srvStack.Addr(), 4433, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := issl.BindClient(tcb, issl.Config{
		Profile: issl.ProfileEmbedded,
		PSK:     psk,
		Rand:    prng.NewXorshift(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if srv := <-ready; srv == nil {
		t.Fatal("server bind failed")
	}

	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	rbuf := make([]byte, 1024)
	roundTrip := func() {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		got := 0
		for got < len(payload) {
			if deadline {
				conn.SetReadDeadline(time.Now().Add(time.Minute))
			}
			n, err := conn.Read(rbuf[got:])
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
		if got != len(payload) || rbuf[0] != payload[0] || rbuf[got-1] != payload[got-1] {
			t.Fatalf("echo mismatch: %d bytes", got)
		}
	}
	// Warm to steady state: buffers grow to their working size, lazy
	// HMAC states build, the record staging area reaches capacity.
	for i := 0; i < 50; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Fatalf("echo round trip allocates %.1f objects/op at steady state, want 0", n)
	}
}
