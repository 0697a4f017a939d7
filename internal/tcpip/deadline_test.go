package tcpip

// Deadline waits ride the stack's timer sweep (see waitCond): no TCB
// owns a timer. Most tests here run a stack without its loop and call
// sweep by hand, so every timer pass happens exactly where the test
// puts it.

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/race"
)

// sweepStack builds a stack whose loop never runs: only the test's own
// sweep calls tick its TCBs.
func sweepStack(t *testing.T) *Stack {
	t.Helper()
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	s, err := newStack(hub, IP4(10, 0, 0, 1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// handTCB registers a hand-built connection to 10.0.0.2:80 on s, in
// state st, on the live list.
func handTCB(s *Stack, st tcpState) *TCB {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := newTCB(s)
	t.localPort, t.remoteIP, t.remotePort, t.state = s.ephemeralPort(), IP4(10, 0, 0, 2), 80, st
	s.addTCBLocked(tcpKey{t.remoteIP, t.remotePort, t.localPort}, t)
	return t
}

type waitResult struct {
	err error
	at  time.Time // when the wait returned
}

// startWait runs wait on a goroutine of its own.
func startWait(wait func() error) <-chan waitResult {
	out := make(chan waitResult, 1)
	go func() {
		err := wait()
		out <- waitResult{err, time.Now()}
	}()
	return out
}

// wakeAtOf reads tcb.wakeAt under its lock. A waiter with a deadline
// is blocked once wakeAt is at or before that deadline.
func wakeAtOf(tcb *TCB) time.Time {
	tcb.mu.Lock()
	defer tcb.mu.Unlock()
	return tcb.wakeAt
}

// result receives a wait's result, failing the test if none comes.
func result(t *testing.T, what string, ch <-chan waitResult) waitResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(2 * time.Second):
		t.Fatalf("%s never returned", what)
		return waitResult{}
	}
}

// stillWaiting fails the test if the wait has returned.
func stillWaiting(t *testing.T, what string, ch <-chan waitResult) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("%s returned %v; want it still waiting", what, r.err)
	default:
	}
}

// TestDeadlinesRideTheSweep: a deadline wait ends on the first sweep
// pass at or after its deadline and never before the clock reaches it,
// on a live connection and on a ListenOne socket alike (which is on no
// connection list; the sweep reaches it through dcListen). A short
// deadline queued behind a long one wakes on its own pass while the
// long one keeps waiting, and a pass dated past every deadline wakes
// the waiters but ends no wait whose deadline the clock has not
// reached.
func TestDeadlinesRideTheSweep(t *testing.T) {
	for _, c := range []struct {
		name string
		tcb  func(*testing.T, *Stack) *TCB
		wait func(*TCB, time.Duration) error
	}{
		{"live", func(_ *testing.T, s *Stack) *TCB { return handTCB(s, stateEstablished) },
			func(tcb *TCB, d time.Duration) error {
				_, err := tcb.ReadDeadline(make([]byte, 1), time.Now().Add(d))
				return err
			}},
		{"listen", func(t *testing.T, s *Stack) *TCB {
			ls, err := s.ListenOne(7)
			if err != nil {
				t.Fatal(err)
			}
			return ls
		}, (*TCB).WaitEstablished},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := sweepStack(t)
			tcb := c.tcb(t, s)

			long := startWait(func() error { return c.wait(tcb, time.Hour) })
			waitUntil(t, "the long wait to block", func() bool { return !wakeAtOf(tcb).IsZero() })
			longAt := wakeAtOf(tcb)
			// A pass dated past the long deadline while the clock is an
			// hour short of it: the waiter checks its own deadline and
			// waits on (a waiter that returned would leave wakeAt zero).
			s.sweep(longAt.Add(time.Minute), nil)
			waitUntil(t, "the long wait to block again", func() bool { return wakeAtOf(tcb).Equal(longAt) })
			stillWaiting(t, "the long wait, after a pass dated past its deadline", long)

			short := startWait(func() error { return c.wait(tcb, 50*time.Millisecond) })
			waitUntil(t, "the short wait to block", func() bool { return wakeAtOf(tcb).Before(longAt) })
			shortAt := wakeAtOf(tcb)
			// A pass just before the short deadline wakes nobody.
			s.sweep(shortAt.Add(-time.Nanosecond), nil)
			if got := wakeAtOf(tcb); !got.Equal(shortAt) {
				t.Fatalf("a pass before the deadline moved wakeAt by %v", got.Sub(shortAt))
			}
			stillWaiting(t, "the short wait, after a pass before its deadline", short)

			// The first pass at or after it ends the short wait.
			time.Sleep(time.Until(shortAt))
			s.sweep(time.Now(), nil)
			r := result(t, "the short wait", short)
			if r.err != ErrTimeout {
				t.Fatalf("short wait: %v, want %v", r.err, ErrTimeout)
			}
			if r.at.Before(shortAt) {
				t.Fatalf("short wait returned %v before its deadline", shortAt.Sub(r.at))
			}
			// The long one woke with it and waits on for its own deadline.
			waitUntil(t, "the long wait to block again", func() bool { return wakeAtOf(tcb).Equal(longAt) })
			stillWaiting(t, "the long wait, after the short one expired", long)

			tcb.Abort()
			if r := result(t, "the long wait", long); r.err != ErrConnClosed {
				t.Fatalf("long wait after Abort: %v, want %v", r.err, ErrConnClosed)
			}
		})
	}
}

// TestWaitEndsWhenTCBCloses: the sweep does not visit TIME_WAIT or
// CLOSED TCBs, and need not, because no wait can succeed there. A
// WaitEstablished blocked on a closing connection returns when the
// connection reaches TIME_WAIT (the peer's FIN in FIN_WAIT_2) or CLOSED
// (the ACK of our FIN in LAST_ACK), and one called there returns at
// once, deadline or none. The stack runs no sweep at all here.
func TestWaitEndsWhenTCBCloses(t *testing.T) {
	s := sweepStack(t)
	const peerSeq, ourSeq = 1000, 5000
	finWait2 := handTCB(s, stateFinWait2)
	finWait2.rcvNxt, finWait2.sndUna, finWait2.sndNxt = peerSeq, ourSeq+1, ourSeq+1
	finWait2.finSent, finWait2.sndClosed, finWait2.finSeq = true, true, ourSeq
	lastAck := handTCB(s, stateLastAck)
	lastAck.rcvNxt, lastAck.sndUna, lastAck.sndNxt = peerSeq, ourSeq, ourSeq+1
	lastAck.finSent, lastAck.sndClosed, lastAck.finSeq, lastAck.rcvClosed = true, true, ourSeq, true

	for _, c := range []struct {
		name  string
		tcb   *TCB
		seg   tcpSegment
		state tcpState
	}{
		{"TIME_WAIT", finWait2, tcpSegment{seq: peerSeq, ack: ourSeq + 1, flags: flagFIN | flagACK}, stateTimeWait},
		{"CLOSED", lastAck, tcpSegment{seq: peerSeq, ack: ourSeq + 1, flags: flagACK}, stateClosed},
	} {
		tcb := c.tcb
		blocked := startWait(func() error { return tcb.WaitEstablished(time.Hour) })
		waitUntil(t, c.name+": the wait to block", func() bool { return !wakeAtOf(tcb).IsZero() })
		c.seg.srcPort, c.seg.dstPort = tcb.remotePort, tcb.localPort
		s.demuxTCP(tcb.remoteIP, c.seg)
		if st := stateOf(tcb); st != c.state {
			t.Fatalf("%s: the segment left the TCB in %v", c.name, st)
		}
		if r := result(t, c.name+": the blocked wait", blocked); r.err != ErrConnClosed {
			t.Errorf("%s: blocked wait returned %v, want %v", c.name, r.err, ErrConnClosed)
		}
		for _, timeout := range []time.Duration{0, time.Hour} {
			r := result(t, c.name+": a wait started there", startWait(func() error { return tcb.WaitEstablished(timeout) }))
			if r.err != ErrConnClosed {
				t.Errorf("%s: WaitEstablished(%v) returned %v, want %v", c.name, timeout, r.err, ErrConnClosed)
			}
		}
	}
}

// TestClosedStackRefusesSockets: Listen, ListenOne and Connect on a
// closed stack return ErrStackClosed. Close has already closed every
// listener it found; one made later would never be closed, so Accept(0)
// on it would block forever, and a ListenOne socket's deadline wait
// would never be swept.
func TestClosedStackRefusesSockets(t *testing.T) {
	_, stacks := testNet(t, 2)
	s := stacks[0]
	s.Close()
	if _, err := s.Listen(7, 1); !errors.Is(err, ErrStackClosed) {
		t.Errorf("Listen after Close: %v, want %v", err, ErrStackClosed)
	}
	if _, err := s.ListenOne(7); !errors.Is(err, ErrStackClosed) {
		t.Errorf("ListenOne after Close: %v, want %v", err, ErrStackClosed)
	}
	if _, err := s.Connect(stacks[1].Addr(), 7, time.Second); !errors.Is(err, ErrStackClosed) {
		t.Errorf("Connect after Close: %v, want %v", err, ErrStackClosed)
	}
}

// connectEchoCloseAllocs is the allocation count of one connect, 5-byte
// echo and graceful close over a tcpip pair, counted process-wide: both
// ends, both stack loops and the server goroutine. Lower it when a
// change removes allocations; never raise it to admit a new one.
const connectEchoCloseAllocs = 6

var errUnexpectedData = errors.New("data after the echo")

// TestConnectEchoCloseAllocs pins connectEchoCloseAllocs. The client
// connects and reads with deadlines, as every reconnecting caller does,
// so a timer or closure per deadline wait fails it.
func TestConnectEchoCloseAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	_, stacks := testNet(t, 2)
	cli, srv := stacks[0], stacks[1]
	l, err := srv.Listen(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error)
	go func() {
		buf := make([]byte, 64)
		for {
			c, err := l.Accept(0)
			if err != nil {
				return
			}
			n, err := c.Read(buf)
			if err == nil {
				_, err = c.Write(buf[:n])
			}
			if err == nil {
				// The client's FIN; data here is a failure too.
				if _, err = c.Read(buf); err == io.EOF {
					err = nil
				} else if err == nil {
					err = errUnexpectedData
				}
			}
			c.Close()
			served <- err
		}
	}()
	msg, buf := []byte("hello"), make([]byte, 64)
	n := testing.AllocsPerRun(50, func() {
		c, err := cli.Connect(srv.Addr(), 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if m, err := c.ReadDeadline(buf, time.Now().Add(2*time.Second)); err != nil || m != len(msg) {
			t.Fatalf("echo: %d bytes, %v", m, err)
		}
		c.Close()
		if err := <-served; err != nil {
			t.Fatalf("server: %v", err)
		}
	})
	if n > connectEchoCloseAllocs {
		t.Errorf("connect, echo and close: %v allocs/op, ceiling %d", n, connectEchoCloseAllocs)
	}
	t.Logf("connect, echo and close: %v allocs/op", n)
}
