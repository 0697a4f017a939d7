package issl

import "repro/internal/telemetry"

// connMetrics caches the registry handles a Conn updates. Resolved
// once in newConn against Config.Metrics; every handle is nil-safe, so
// the record and handshake paths update them unconditionally.
type connMetrics struct {
	handshakesFull    *telemetry.Counter
	handshakesResumed *telemetry.Counter
	handshakesFailed  *telemetry.Counter
	alertsSent        *telemetry.Counter
	alertsRecv        *telemetry.Counter
	recordsIn         *telemetry.Counter
	recordsOut        *telemetry.Counter
	bytesIn           *telemetry.Counter
	bytesOut          *telemetry.Counter
	ticketsIssued     *telemetry.Counter
	ticketsResumed    *telemetry.Counter
	ticketsRejected   *telemetry.Counter
}

func newConnMetrics(reg *telemetry.Registry) connMetrics {
	return connMetrics{
		handshakesFull:    reg.Counter("issl.handshakes_full"),
		handshakesResumed: reg.Counter("issl.handshakes_resumed"),
		handshakesFailed:  reg.Counter("issl.handshakes_failed"),
		alertsSent:        reg.Counter("issl.alerts_sent"),
		alertsRecv:        reg.Counter("issl.alerts_recv"),
		recordsIn:         reg.Counter("issl.records_in"),
		recordsOut:        reg.Counter("issl.records_out"),
		bytesIn:           reg.Counter("issl.bytes_in"),
		bytesOut:          reg.Counter("issl.bytes_out"),
		ticketsIssued:     reg.Counter("issl.tickets_issued"),
		ticketsResumed:    reg.Counter("issl.tickets_resumed"),
		ticketsRejected:   reg.Counter("issl.tickets_rejected"),
	}
}

// emitPhase records the completion of one handshake phase with its
// duration on the trace clock and returns the reading that starts the
// next phase. The phase sequence is the handshake's observable shape:
// hello -> key_exchange -> finished on a full handshake, with
// key_exchange absent when the session was resumed.
func (c *Conn) emitPhase(role, phase string, resumed bool, start uint64) uint64 {
	tr := c.cfg.Trace
	if tr == nil {
		// Emit boxes its arguments before its nil-receiver check, and
		// production connections run without a trace.
		return 0
	}
	now := tr.Now()
	tr.Emit("issl", "hs.phase",
		"role", role, "phase", phase, "resumed", resumed, "dur_ns", now-start)
	return now
}
