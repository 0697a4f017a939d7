package loadgen

// The combined chaos soak: the E13 node-kill/restart plan AND the
// degraded-wire fault schedule in one seeded run. Before this test the
// two failure modes were only ever exercised separately (cluster tests
// on a clean wire, wire-fault soaks against a single instance); the
// paper's deployment saw both at once — a flaky lab segment under a
// watchdog-rebooting board.

import (
	"testing"
	"time"

	"repro/internal/chaos"
)

func TestClusterCombinedChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("combined chaos soak skipped in -short mode")
	}
	const (
		killed  = 1
		seed    = 0xC0FFEE
		planned = 100 * 5
	)
	rep, err := Run(Config{
		Seed:        seed,
		Clients:     100,
		Requests:    5,
		Resume:      0.6,
		Concurrency: 16,

		// Both failure planes at once: the wire degrades per the shared
		// soak schedule while node 1 is killed and later restarted.
		Faults: chaos.SoakPlan(seed),

		Instances:      3,
		RequestRetries: 6,
		KillNode:       killed,
		KillAfter:      150 * time.Millisecond,
		RestartAfter:   300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Measured

	// The two invariants that define the soak: no silent corruption
	// ever, and the cluster recovers in bounded time. Loss, bit rot
	// and the kill may cost retries — they must not cost integrity.
	if m.EchoMismatches != 0 {
		t.Errorf("echo mismatches = %d, want 0", m.EchoMismatches)
	}
	if m.Requests+m.Errors != planned {
		t.Errorf("accounted requests = %d, want %d", m.Requests+m.Errors, planned)
	}
	// The retry budget should absorb nearly everything; a degraded
	// wire plus a kill may strand a handful of requests, but a failure
	// rate above 5% means recovery is broken, not the wire.
	if m.Errors > planned/20 {
		t.Errorf("errors = %d of %d (retries used: %d), want <= %d",
			m.Errors, planned, m.Retries, planned/20)
	}

	cr := m.Cluster
	if cr == nil {
		t.Fatal("no cluster section in the report")
	}
	if cr.NodeDowns == 0 {
		t.Error("node kill never detected by the health checker")
	}
	if cr.RecoveryNs == 0 {
		t.Error("no successful request recorded after the kill")
	} else if cr.RecoveryNs > uint64(5*time.Second) {
		t.Errorf("recovery took %v, want bounded (<5s)", time.Duration(cr.RecoveryNs))
	}
	// The degraded wire actually bit: the hub's fault plan dropped and
	// corrupted frames, and TCP had to retransmit. (Request retries are
	// no such evidence: the transport absorbs most faults below the
	// request, so a clean run of the soak often needs none.)
	if m.WireLost == 0 || m.WireCorrupted == 0 {
		t.Errorf("wire faults: %d frames lost, %d corrupted; want both > 0", m.WireLost, m.WireCorrupted)
	}
	if m.TCPRetransmits == 0 {
		t.Error("no tcp retransmits recorded: the wire faults never reached a connection")
	}
}
