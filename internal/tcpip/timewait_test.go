package tcpip

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"repro/internal/netsim"
)

// checkSweepLists fails the test unless the live list and the
// TIME_WAIT FIFO together hold exactly the connection-table entries,
// each once, with list lengths matching their counts and FIFO expiries
// in arrival (non-decreasing) order.
func checkSweepLists(t *testing.T, s *Stack, when string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[*TCB]bool{}
	walk := func(name string, l *tcbList) {
		n := 0
		var last time.Time
		for tcb := l.head; tcb != nil; tcb = tcb.next {
			n++
			if tcb.list != l {
				t.Errorf("%s: %s entry on port %d points at another list", when, name, tcb.localPort)
			}
			if seen[tcb] {
				t.Errorf("%s: port %d is on the sweep lists twice", when, tcb.localPort)
			}
			seen[tcb] = true
			if l == &s.timeWait {
				if tcb.timeWaitAt.Before(last) {
					t.Errorf("%s: TIME_WAIT FIFO out of expiry order at port %d", when, tcb.localPort)
				}
				last = tcb.timeWaitAt
			}
		}
		if n != l.n {
			t.Errorf("%s: %s list walks %d entries, counts %d", when, name, n, l.n)
		}
	}
	walk("live", &s.live)
	walk("TIME_WAIT", &s.timeWait)
	table := map[*TCB]bool{}
	for _, tcb := range s.tcbs {
		table[tcb] = true
	}
	if !maps.Equal(seen, table) {
		t.Errorf("%s: sweep lists hold %d TCBs, connection table %d", when, len(seen), len(table))
	}
}

// portCounts snapshots s.tcbPorts.
func portCounts(s *Stack) map[uint16]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.tcbPorts)
}

// TestTimerSweepUnderTimeWait parks 1,200 TIME_WAIT connections on a
// stack beside a few live ones and checks the sweep's contract: it
// visits the live TCBs and only the expired head of the TIME_WAIT
// FIFO; a real TIME_WAIT still lasts timeWaitDelay; leaving TIME_WAIT
// early (a peer's RST, Stack.Close) leaves no stale FIFO entry; and
// the port table returns to its baseline.
func TestTimerSweepUnderTimeWait(t *testing.T) {
	_, stacks := testNet(t, 2)
	cli, srv := stacks[0], stacks[1]
	l, err := srv.Listen(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	acceptAll(l, closeAtEOF)
	var live []*TCB
	for i := 0; i < 3; i++ {
		c, err := cli.Connect(srv.Addr(), 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, c)
	}
	baseline := portCounts(cli)

	// Two cohorts, an hour and two hours out: the sweep must stop at the
	// first one that has not expired.
	now := time.Now()
	early := fillTimeWait(t, cli, 600, time.Hour)
	late := fillTimeWait(t, cli, 600, 2*time.Hour)
	checkSweepLists(t, cli, "after parking")
	for _, c := range []struct {
		name string
		at   time.Time
		want int
	}{
		{"none expired", now, len(live)},
		{"first cohort expired", now.Add(90 * time.Minute), len(live) + len(early)},
		{"all expired", now.Add(3 * time.Hour), len(live) + len(early) + len(late)},
	} {
		due, _ := cli.dueTCBs(c.at, nil)
		if len(due) != c.want {
			t.Errorf("%s: sweep visits %d TCBs, want %d", c.name, len(due), c.want)
		}
		for i, tcb := range due[:min(len(due), len(live))] {
			if tcb != live[i] {
				t.Errorf("%s: sweep entry %d is not live connection %d", c.name, i, i)
			}
		}
	}

	// Early exit by RST, from the middle of the FIFO: the entry goes at
	// once, and a later sweep past its expiry neither sees nor removes
	// it again.
	victim := early[300]
	cli.demuxTCP(victim.remoteIP, tcpSegment{srcPort: victim.remotePort, dstPort: victim.localPort,
		flags: flagRST, seq: victim.rcvNxt})
	if st := stateOf(victim); st != stateClosed {
		t.Fatalf("TIME_WAIT TCB after RST: %v, want CLOSED", st)
	}
	checkSweepLists(t, cli, "after RST")
	if due, _ := cli.dueTCBs(now.Add(3*time.Hour), nil); len(due) != len(live)+len(early)+len(late)-1 {
		t.Errorf("after RST: sweep visits %d TCBs, want %d", len(due), len(live)+len(early)+len(late)-1)
	}
	cli.sweep(now.Add(3*time.Hour), nil)
	checkSweepLists(t, cli, "after expiring every parked TCB")
	if got := portCounts(cli); !maps.Equal(got, baseline) {
		t.Errorf("port table after expiry: %d ports, want the %d live ones", len(got), len(baseline))
	}

	// Real TIME_WAITs, entered by graceful close: each lasts at least
	// timeWaitDelay, and the stack's own sweep then frees the port.
	closeAt := time.Now()
	for _, c := range live {
		c.Close()
	}
	for _, c := range live {
		waitUntil(t, "TIME_WAIT", func() bool { return stateOf(c) == stateTimeWait })
	}
	cli.mu.Lock()
	for _, c := range live {
		if c.list != &cli.timeWait {
			t.Errorf("port %d in TIME_WAIT is not on the FIFO", c.localPort)
		}
		if c.timeWaitAt.Before(closeAt.Add(timeWaitDelay)) {
			t.Errorf("port %d expires %v after Close, want >= %v",
				c.localPort, c.timeWaitAt.Sub(closeAt), timeWaitDelay)
		}
	}
	cli.mu.Unlock()
	for _, c := range live {
		for stateOf(c) == stateTimeWait {
			time.Sleep(time.Millisecond)
		}
		cli.mu.Lock()
		expiry := c.timeWaitAt
		cli.mu.Unlock()
		if seen := time.Now(); seen.Before(expiry) {
			t.Errorf("port %d left TIME_WAIT %v before its expiry", c.localPort, expiry.Sub(seen))
		}
	}
	waitUntil(t, "ports freed", func() bool { return len(portCounts(cli)) == 0 })
	checkSweepLists(t, cli, "after real TIME_WAIT expiry")

	// Stack.Close takes TIME_WAIT connections down with the rest.
	fillTimeWait(t, cli, 1000, time.Hour)
	cli.Close()
	checkSweepLists(t, cli, "after Stack.Close")
	if n := len(portCounts(cli)); n != 0 {
		t.Errorf("after Stack.Close: %d ports still counted", n)
	}
}

// BenchmarkTickUnderTimeWait times one timer pass (Stack.sweep) on a
// stack with four live connections and 0, 1,000 or 10,000 unexpired
// TIME_WAIT connections. The pass walks the live list and the FIFO's
// expired head only, so ns/op should stay flat as the TIME_WAIT count
// grows.
func BenchmarkTickUnderTimeWait(b *testing.B) {
	for _, tw := range []int{0, 1000, 10000} {
		b.Run(fmt.Sprintf("timewait=%d", tw), func(b *testing.B) {
			hub := netsim.NewHub()
			defer hub.Close()
			s, err := newStack(hub, IP4(10, 0, 0, 1), nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 4; i++ {
				handTCB(s, stateEstablished)
			}
			fillTimeWait(b, s, tw, time.Hour)
			var scratch []*TCB
			now := time.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch = s.sweep(now, scratch)
			}
		})
	}
}
