package redirector

import (
	"io"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/race"
	"repro/internal/tcpip"
)

// TestRelayEchoZeroAlloc pins a steady-state echo through Relay at 0
// allocations: client → relay → echo backend and back, over a tcpip
// pair. AllocsPerRun counts mallocs process-wide, so the relay's two
// directions, both stacks' loops and the echo loop are all inside the
// measurement.
func TestRelayEchoZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	hub := netsim.NewHub()
	defer hub.Close()
	cliStack, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cliStack.Close()
	relayStack, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer relayStack.Close()

	// The echo backend lives on the client's stack; the relay dials it.
	echoL, err := cliStack.Listen(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := echoL.Accept(5 * time.Second)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				if _, werr := c.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				c.Close()
				return
			}
		}
	}()
	front, err := relayStack.Listen(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	relayed := make(chan struct{})
	go func() {
		defer close(relayed)
		a, err := front.Accept(5 * time.Second)
		if err != nil {
			return
		}
		b, err := relayStack.Connect(cliStack.Addr(), 7, 5*time.Second)
		if err != nil {
			a.Abort()
			return
		}
		Relay(a, b, nil, nil, nil)
	}()

	c, err := cliStack.Connect(relayStack.Addr(), 80, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	rbuf := make([]byte, len(payload))
	roundTrip := func() {
		if _, err := c.Write(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, rbuf); err != nil {
			t.Fatal(err)
		}
		if rbuf[0] != payload[0] || rbuf[len(rbuf)-1] != payload[len(payload)-1] {
			t.Fatal("echo mismatch")
		}
	}
	for i := 0; i < 50; i++ { // buffers grow to their working size
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Fatalf("relayed echo round trip allocates %.1f objects/op at steady state, want 0", n)
	}
	c.Close()
	select {
	case <-relayed:
	case <-time.After(5 * time.Second):
		t.Fatal("relay did not end after the client closed")
	}
}
