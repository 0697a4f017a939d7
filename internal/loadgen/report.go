package loadgen

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// Percentiles is an exact-percentile latency summary read out of an
// HDR histogram (values are bucket upper bounds, within 1/64 relative
// error; see telemetry.Histogram).
type Percentiles struct {
	P50    uint64  `json:"p50_ns"`
	P90    uint64  `json:"p90_ns"`
	P95    uint64  `json:"p95_ns"`
	P99    uint64  `json:"p99_ns"`
	P999   uint64  `json:"p999_ns"`
	Max    uint64  `json:"max_ns"`
	MeanNs float64 `json:"mean_ns"`
}

func percentilesFrom(h *telemetry.Histogram) Percentiles {
	return Percentiles{
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
		P999:   h.Quantile(0.999),
		Max:    h.Max(),
		MeanNs: h.Mean(),
	}
}

// PlanReport is what the seeded workload plan offered: identical
// across runs with the same configuration and seed. The handshake
// counts assume a session cache that grants every offered session, so
// the measured counts can be checked against them.
type PlanReport struct {
	Requests          uint64 `json:"requests"`
	HandshakesFull    uint64 `json:"handshakes_full"`
	HandshakesResumed uint64 `json:"handshakes_resumed"`
}

// MeasuredReport is the live section: what the real vertical did,
// counted by the telemetry registry and the fleet itself. Timing
// fields here are wall clock and vary run to run; the count fields
// (requests, errors, byte totals) are stable when the run is fault
// free.
type MeasuredReport struct {
	DurationNs        uint64  `json:"duration_ns"`
	RPS               float64 `json:"rps"`
	Requests          uint64  `json:"requests"`
	Errors            uint64  `json:"errors"`
	EchoMismatches    uint64  `json:"echo_mismatches"`
	Retries           uint64  `json:"request_retries,omitempty"`
	ResumeFallbacks   uint64  `json:"resume_fallbacks,omitempty"`
	BytesEchoed       uint64  `json:"bytes_echoed"`
	HandshakesFull    uint64  `json:"handshakes_full"`
	HandshakesResumed uint64  `json:"handshakes_resumed"`
	HandshakesFailed  uint64  `json:"handshakes_failed"`
	TicketsIssued     uint64  `json:"tickets_issued,omitempty"`
	TicketsResumed    uint64  `json:"tickets_resumed,omitempty"`
	TicketsRejected   uint64  `json:"tickets_rejected,omitempty"`
	Accepted          uint64  `json:"accepted"`
	Refused           uint64  `json:"refused"`
	AdmissionRefused  uint64  `json:"admission_refused"`
	DialAttempts      uint64  `json:"dial_attempts"`
	DialFailures      uint64  `json:"dial_failures"`
	// WireLost and WireCorrupted count the frames the hub's fault plan
	// dropped and corrupted (0 on a clean wire); TCPRetransmits counts
	// the segments the client, backend and single-redirector stacks
	// sent again.
	WireLost       uint64 `json:"wire_lost,omitempty"`
	WireCorrupted  uint64 `json:"wire_corrupted,omitempty"`
	TCPRetransmits uint64 `json:"tcp_retransmits,omitempty"`
	// HandshakesPerSec is completed handshakes (full + resumed) per
	// wall-clock second — the stampede scenario's SLO axis.
	HandshakesPerSec float64 `json:"handshakes_per_sec,omitempty"`
	// SignPoolOps / SignPoolQueueFull read the server's RSA worker pool:
	// private-key operations run through it, and how many submissions
	// found the queue full and had to wait (graceful queuing — never an
	// error). Zero when no pool is configured.
	SignPoolOps       uint64       `json:"signpool_ops,omitempty"`
	SignPoolQueueFull uint64       `json:"signpool_queue_full,omitempty"`
	WallLatency       *Percentiles `json:"wall_latency,omitempty"`

	// PerInstance breaks the server-side counters down by fleet
	// instance (cluster mode only) — the per-instance SLO view.
	PerInstance []InstanceReport `json:"per_instance,omitempty"`
	// Cluster is the balancer's verdict on the run (cluster mode only).
	Cluster *ClusterReport `json:"cluster,omitempty"`
}

// InstanceReport is one fleet instance's share of the work, read from
// its private telemetry registry.
type InstanceReport struct {
	Node              int    `json:"node"`
	Up                bool   `json:"up"` // health verdict at run end
	Accepted          uint64 `json:"accepted"`
	Refused           uint64 `json:"refused"`
	AdmissionRefused  uint64 `json:"admission_refused,omitempty"`
	HandshakesFull    uint64 `json:"handshakes_full"`
	HandshakesResumed uint64 `json:"handshakes_resumed"`
	HandshakesFailed  uint64 `json:"handshakes_failed,omitempty"`
	TicketsIssued     uint64 `json:"tickets_issued"`
	TicketsResumed    uint64 `json:"tickets_resumed"`
	TicketsRejected   uint64 `json:"tickets_rejected,omitempty"`
	BytesForward      uint64 `json:"bytes_forward"`
	BytesBackward     uint64 `json:"bytes_backward"`
}

// ClusterReport is the L4 balancer's summary: how traffic spread, what
// failed over, and — under the node-kill plan — how fast the fleet
// recovered.
type ClusterReport struct {
	Instances  int    `json:"instances"`
	Balanced   uint64 `json:"balanced"`  // connections spliced to a node
	Refused    uint64 `json:"refused"`   // connections no node would take
	Failovers  uint64 `json:"failovers"` // candidates skipped on connect failure
	NodeDowns  uint64 `json:"node_downs"`
	NodeUps    uint64 `json:"node_ups"`
	NodesUpEnd int    `json:"nodes_up_end"`
	// KilledNode is the chaos plan's victim, -1 when no kill ran
	// (none planned, or the fleet finished before its timer fired).
	// KillAfterNs is when the kill was issued (KillNode called), from
	// the start of the run: the planned instant plus timer slack.
	// RestartAfterNs is the kill -> restart gap, 0 if no restart ran.
	KilledNode     int    `json:"killed_node"`
	KillAfterNs    uint64 `json:"kill_after_ns,omitempty"`
	RestartAfterNs uint64 `json:"restart_after_ns,omitempty"`
	// RecoveryNs is kill -> first subsequent successful request across
	// the fleet: the service-level recovery bound.
	RecoveryNs uint64 `json:"recovery_ns,omitempty"`
}

// Report is the SLO report: configuration echo, the seeded plan's
// counts, and the measured section.
type Report struct {
	Seed        uint64  `json:"seed"`
	Clients     int     `json:"clients"`
	Requests    int     `json:"requests_per_client"`
	Concurrency int     `json:"concurrency"`
	Resume      float64 `json:"resume"`
	MaxInflight int     `json:"max_inflight"`
	Faulty      bool    `json:"faulty"`
	Stampede    bool    `json:"stampede,omitempty"`
	SignWorkers int     `json:"sign_workers,omitempty"`
	KeyBits     int     `json:"key_bits,omitempty"`
	Instances   int     `json:"instances,omitempty"`

	Plan     PlanReport     `json:"plan"`
	Measured MeasuredReport `json:"measured"`
}

// WriteJSON writes the full report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes the human SLO report.
func (r *Report) WriteText(w io.Writer) error {
	mode := "closed"
	if r.Stampede {
		mode += " stampede"
	}
	fmt.Fprintf(w, "loadbench: seed=%d  %d clients x %d requests  %s  secure (issl Unix profile, %d-bit key)\n",
		r.Seed, r.Clients, r.Requests, mode, r.KeyBits)
	fmt.Fprintf(w, "           resume=%.0f%%  concurrency=%d  max-inflight=%d  faults=%v\n\n",
		r.Resume*100, r.Concurrency, r.MaxInflight, r.Faulty)

	fmt.Fprintf(w, "plan (seeded, replayable):\n")
	fmt.Fprintf(w, "  requests       %12d\n", r.Plan.Requests)
	fmt.Fprintf(w, "  handshakes     %12d full, %d resumed\n", r.Plan.HandshakesFull, r.Plan.HandshakesResumed)

	m := &r.Measured
	fmt.Fprintf(w, "\nmeasured (live vertical, wall clock):\n")
	fmt.Fprintf(w, "  duration       %12.3f s\n", float64(m.DurationNs)/1e9)
	fmt.Fprintf(w, "  throughput     %12.1f req/s\n", m.RPS)
	fmt.Fprintf(w, "  requests       %12d ok, %d errors\n", m.Requests, m.Errors)
	fmt.Fprintf(w, "  bytes echoed   %12d\n", m.BytesEchoed)
	fmt.Fprintf(w, "  handshakes     %12d full, %d resumed, %d failed\n",
		m.HandshakesFull, m.HandshakesResumed, m.HandshakesFailed)
	fmt.Fprintf(w, "  server         %12d accepted, %d refused (%d admission)\n",
		m.Accepted, m.Refused, m.AdmissionRefused)
	fmt.Fprintf(w, "  dials          %12d attempts, %d failures\n", m.DialAttempts, m.DialFailures)
	if m.EchoMismatches > 0 || m.Retries > 0 || m.ResumeFallbacks > 0 {
		fmt.Fprintf(w, "  degradations   %12d echo mismatches, %d request retries, %d resume fallbacks\n",
			m.EchoMismatches, m.Retries, m.ResumeFallbacks)
	}
	if r.Faulty || m.TCPRetransmits > 0 {
		fmt.Fprintf(w, "  wire           %12d frames lost, %d corrupted, %d tcp retransmits\n",
			m.WireLost, m.WireCorrupted, m.TCPRetransmits)
	}
	if m.TicketsIssued > 0 || m.TicketsResumed > 0 || m.TicketsRejected > 0 {
		fmt.Fprintf(w, "  tickets        %12d issued, %d resumed, %d rejected\n",
			m.TicketsIssued, m.TicketsResumed, m.TicketsRejected)
	}
	if m.WallLatency != nil {
		writePct(w, "  wall latency", *m.WallLatency)
	}

	if r.Stampede || m.SignPoolOps > 0 {
		fmt.Fprintf(w, "\nhandshake SLO")
		if r.Stampede {
			fmt.Fprintf(w, " (reconnect stampede: %d simultaneous dials, 0%% resumption)", r.Clients)
		}
		fmt.Fprintln(w, ":")
		fmt.Fprintf(w, "  handshakes/sec %12.1f completed per wall second\n", m.HandshakesPerSec)
		if r.SignWorkers > 0 {
			fmt.Fprintf(w, "  sign pool      %12d ops through %d worker(s), %d queue-full waits\n",
				m.SignPoolOps, r.SignWorkers, m.SignPoolQueueFull)
		} else {
			fmt.Fprintf(w, "  sign pool      %12s (RSA key ops inline per connection)\n", "disabled")
		}
	}

	if c := m.Cluster; c != nil {
		fmt.Fprintf(w, "\ncluster (%d instances):\n", c.Instances)
		fmt.Fprintf(w, "  balancer       %12d balanced, %d refused, %d failovers\n",
			c.Balanced, c.Refused, c.Failovers)
		fmt.Fprintf(w, "  health         %12d downs, %d reinstatements, %d/%d up at end\n",
			c.NodeDowns, c.NodeUps, c.NodesUpEnd, c.Instances)
		if c.KilledNode >= 0 {
			fmt.Fprintf(w, "  chaos          node %d killed at %.2fs", c.KilledNode, float64(c.KillAfterNs)/1e9)
			if c.RestartAfterNs > 0 {
				fmt.Fprintf(w, ", restarted %.2fs later", float64(c.RestartAfterNs)/1e9)
			}
			if c.RecoveryNs > 0 {
				fmt.Fprintf(w, "; first post-kill success after %.1fms", float64(c.RecoveryNs)/1e6)
			}
			fmt.Fprintln(w)
		}
		for _, inst := range m.PerInstance {
			state := "up"
			if !inst.Up {
				state = "down"
			}
			fmt.Fprintf(w, "  node %-2d %-4s   %12d accepted, hs %d full / %d resumed, tickets %d issued / %d resumed / %d rejected\n",
				inst.Node, state, inst.Accepted, inst.HandshakesFull, inst.HandshakesResumed,
				inst.TicketsIssued, inst.TicketsResumed, inst.TicketsRejected)
		}
	}

	return nil
}

func writePct(w io.Writer, label string, p Percentiles) {
	ms := func(ns uint64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(w, "%s   p50 %.3fms  p90 %.3fms  p95 %.3fms  p99 %.3fms  p999 %.3fms  max %.3fms  mean %.3fms\n",
		label, ms(p.P50), ms(p.P90), ms(p.P95), ms(p.P99), ms(p.P999), ms(p.Max), p.MeanNs/1e6)
}
