package loadgen

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestSoak1kConnections is the capacity soak: a thousand connections
// (500 clients x 2 churned requests) through the full secure vertical
// over a degraded wire — the chaos harness's canonical fault schedule:
// burst loss, corruption, duplicates, reordering. Every completed
// request was verified byte-exact by the fleet; the soak asserts the
// error tail stays within the retry budget, the bounded session cache
// kept granting resumptions, and the goroutine population returns to
// baseline after the run (no leaked handlers, pumps or stacks).
func TestSoak1kConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("loadgen soak skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	rep, err := Run(Config{
		Seed:        0x50AC,
		Clients:     500,
		Requests:    2,
		Resume:      0.95,
		Concurrency: 32,
		Faults:      chaos.SoakPlan(0x50AC),
	})
	if err != nil {
		t.Fatal(err)
	}

	const planned = 500 * 2
	if got := rep.Measured.Requests + rep.Measured.Errors; got != planned {
		t.Errorf("accounted requests = %d, want %d", got, planned)
	}
	// The retry policy absorbs the wire's faults; a small residue of
	// exhausted retries is tolerated, a large one means recovery broke.
	if rep.Measured.Errors > planned/50 {
		t.Errorf("error tail too fat: %d of %d (>2%%)", rep.Measured.Errors, planned)
	}
	if rep.Measured.BytesEchoed == 0 {
		t.Error("no bytes echoed")
	}
	// The 95% resumption mix must actually reach the server: the
	// bounded cache has to grant a solid majority of the ~475
	// planned resumptions even with faults forcing occasional full
	// re-handshakes.
	if rep.Measured.HandshakesResumed < rep.Plan.HandshakesResumed/2 {
		t.Errorf("resumptions collapsed: measured %d, planned %d",
			rep.Measured.HandshakesResumed, rep.Plan.HandshakesResumed)
	}

	// Goroutine population must return to baseline: Run tears down the
	// fleet, redirector (Close waits for handlers), stacks and hub.
	// Poll briefly — TIME_WAIT reapers and pump halves wind down
	// asynchronously after Close returns.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, now, buf[:n])
		}
		time.Sleep(100 * time.Millisecond)
	}
}
