package loadgen

import (
	"strings"
	"testing"
	"time"
)

// TestClusterSmoke runs a small fleet against three instances behind
// the balancer with no chaos: every request completes byte-exact, the
// balancer accounted for every connection, and the per-instance
// breakdown sums to the fleet totals.
func TestClusterSmoke(t *testing.T) {
	rep, err := Run(Config{
		Seed: 21, Clients: 12, Requests: 2, Resume: 0.5, Concurrency: 6,
		Instances: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = 12 * 2
	if rep.Measured.Requests != want || rep.Measured.Errors != 0 {
		t.Fatalf("measured = %d ok / %d errors, want %d / 0",
			rep.Measured.Requests, rep.Measured.Errors, want)
	}
	if rep.Measured.Cluster == nil {
		t.Fatal("no cluster section in the report")
	}
	if got := rep.Measured.Cluster.Balanced; got != want {
		t.Errorf("balancer accepted %d, want %d", got, want)
	}
	if len(rep.Measured.PerInstance) != 3 {
		t.Fatalf("per-instance rows = %d, want 3", len(rep.Measured.PerInstance))
	}
	var accepted, issued uint64
	for _, inst := range rep.Measured.PerInstance {
		accepted += inst.Accepted
		issued += inst.TicketsIssued
	}
	if accepted != rep.Measured.Accepted || issued != rep.Measured.TicketsIssued {
		t.Errorf("per-instance sums (%d accepted, %d issued) disagree with fleet (%d, %d)",
			accepted, issued, rep.Measured.Accepted, rep.Measured.TicketsIssued)
	}
	if rep.Measured.Cluster.KilledNode != -1 {
		t.Errorf("no kill was scheduled but KilledNode = %d", rep.Measured.Cluster.KilledNode)
	}
}

// TestClusterKillAfterRunNotReported schedules a kill the fleet
// outlasts: the run ends before the timer, so no node dies and the
// report must say so, with no chaos line in the text.
func TestClusterKillAfterRunNotReported(t *testing.T) {
	rep, err := Run(Config{
		Seed: 22, Clients: 6, Requests: 2, Resume: 0.5, Concurrency: 3,
		Instances:    3,
		KillNode:     1,
		KillAfter:    time.Minute,
		RestartAfter: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := rep.Measured.Cluster
	if cr == nil {
		t.Fatal("no cluster section in the report")
	}
	if cr.KilledNode != -1 || cr.KillAfterNs != 0 || cr.RestartAfterNs != 0 || cr.RecoveryNs != 0 {
		t.Errorf("kill never ran but the report has node %d killed at %v, restarted %v later, recovery %v",
			cr.KilledNode, time.Duration(cr.KillAfterNs), time.Duration(cr.RestartAfterNs), time.Duration(cr.RecoveryNs))
	}
	if cr.NodesUpEnd != 3 {
		t.Errorf("%d/3 nodes up at the end, want all", cr.NodesUpEnd)
	}
	var text strings.Builder
	rep.WriteText(&text)
	if strings.Contains(text.String(), "chaos") {
		t.Errorf("text report claims a kill:\n%s", text.String())
	}
}

// TestClusterNodeKillSoak is the acceptance scenario: three instances,
// a returning-client mix above 50% resumption, and one instance killed
// mid-load then restarted. A well-behaved fleet (bounded per-request
// retries on fresh connections) must finish with zero byte-exactness
// errors and zero stranded requests; sealed tickets must keep resuming
// on the surviving instances; and the post-kill SLO must show bounded
// recovery — the first successful request after the kill lands within
// the failover budget, not after the health checker's full sweep.
func TestClusterNodeKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos soak skipped in -short mode")
	}
	const killed = 1
	rep, err := Run(Config{
		Seed:        0xC1A0,
		Clients:     100,
		Requests:    5,
		Resume:      0.6,
		Concurrency: 6,
		HubLatency:  time.Millisecond,

		Instances:      3,
		RequestRetries: 3,
		KillNode:       killed,
		KillAfter:      150 * time.Millisecond,
		RestartAfter:   300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Measured

	// Byte exactness is absolute: a mismatch is corruption, not load.
	if m.EchoMismatches != 0 {
		t.Errorf("echo mismatches = %d, want 0", m.EchoMismatches)
	}
	// No well-behaved client was stranded: transport failures from the
	// kill are absorbed by the retry budget.
	const planned = 100 * 5
	if m.Requests != planned || m.Errors != 0 {
		t.Errorf("requests = %d ok / %d errors, want %d / 0 (retries used: %d)",
			m.Requests, m.Errors, planned, m.Retries)
	}

	cr := m.Cluster
	if cr == nil {
		t.Fatal("no cluster section in the report")
	}
	if cr.KilledNode != killed {
		t.Fatalf("killed node = %d, want %d", cr.KilledNode, killed)
	}
	if cr.KillAfterNs < uint64(150*time.Millisecond) {
		t.Errorf("kill reported at %v, before its 150ms timer", time.Duration(cr.KillAfterNs))
	}
	// The health checker saw the kill.
	if cr.NodeDowns == 0 {
		t.Error("node kill never detected by the health checker")
	}
	// Tickets kept resuming on the survivors: the cluster-shared sealed
	// ticket key means a client bounced off the dead instance does not
	// pay a full handshake on its new home.
	var survivorsResumed uint64
	for _, inst := range m.PerInstance {
		if inst.Node != killed {
			survivorsResumed += inst.TicketsResumed
		}
	}
	if survivorsResumed == 0 {
		t.Errorf("no ticket resumptions on surviving instances (fleet resumed %d)",
			m.TicketsResumed)
	}
	// Bounded recovery: some request succeeded after the kill, and not
	// long after — failover covers the detection window, so recovery
	// should be well inside the 1s forward timeout plus probe sweep.
	if cr.RecoveryNs == 0 {
		t.Error("no successful request recorded after the kill")
	} else if cr.RecoveryNs > uint64(5*time.Second) {
		t.Errorf("recovery took %v, want bounded (<5s)", time.Duration(cr.RecoveryNs))
	}
}
