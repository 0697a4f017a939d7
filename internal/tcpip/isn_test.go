package tcpip

import (
	"sync"
	"testing"
	"time"
)

// TestISNDrawsDoNotRace dials and accepts on the same stacks at once,
// as the redirector's stack does: each stack draws initial sequence
// numbers for its own Connects and for the SYNs it accepts, and the
// shared generator must stay guarded (run under -race).
func TestISNDrawsDoNotRace(t *testing.T) {
	_, stacks := testNet(t, 2)
	const dialers, conns = 4, 25
	for _, s := range stacks {
		l, err := s.Listen(7, dialers*conns)
		if err != nil {
			t.Fatal(err)
		}
		acceptAll(l, func(*TCB) {})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*dialers)
	for i := range 2 * dialers {
		s, peer := stacks[i%2], stacks[1-i%2].Addr()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < conns; n++ {
				c, err := s.Connect(peer, 7, 2*time.Second)
				if err != nil {
					errs <- err
					return
				}
				c.Abort()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
