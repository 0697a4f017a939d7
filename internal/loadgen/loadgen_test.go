package loadgen

import (
	"bytes"
	"testing"
)

// TestSmokeClosed runs a small closed-loop fleet end to end and checks
// the report's internal consistency: every planned request completed,
// byte-exact, with the handshake mix the plan called for.
func TestSmokeClosed(t *testing.T) {
	// No session can be evicted, so the live handshake mix must equal
	// the planned mix exactly: a 128-session cache holds all 16
	// sessions the plan can issue.
	rep, err := Run(Config{Seed: 7, Clients: 8, Requests: 2, Resume: 0.5, Concurrency: 4,
		cacheSessions: 128})
	if err != nil {
		t.Fatal(err)
	}
	const want = 8 * 2
	if rep.Plan.Requests != want {
		t.Errorf("planned requests = %d, want %d", rep.Plan.Requests, want)
	}
	if rep.Measured.Requests != want || rep.Measured.Errors != 0 {
		t.Errorf("measured = %d ok / %d errors, want %d / 0",
			rep.Measured.Requests, rep.Measured.Errors, want)
	}
	if rep.Measured.BytesEchoed == 0 {
		t.Error("no bytes echoed")
	}
	// The redirector's own counters: one accepted connection per
	// request (each request reconnects), none refused.
	if rep.Measured.Accepted != want || rep.Measured.Refused != 0 {
		t.Errorf("server accepted %d / refused %d, want %d / 0",
			rep.Measured.Accepted, rep.Measured.Refused, want)
	}
	// Every connection handshakes: 16 fresh connections planned.
	if got := rep.Plan.HandshakesFull + rep.Plan.HandshakesResumed; got != want {
		t.Errorf("planned handshakes = %d, want %d", got, want)
	}
	// The live server granted what the plan offered (cache is big
	// enough that no offer should miss).
	if rep.Measured.HandshakesFull != rep.Plan.HandshakesFull ||
		rep.Measured.HandshakesResumed != rep.Plan.HandshakesResumed {
		t.Errorf("measured handshakes full=%d resumed=%d, plan full=%d resumed=%d",
			rep.Measured.HandshakesFull, rep.Measured.HandshakesResumed,
			rep.Plan.HandshakesFull, rep.Plan.HandshakesResumed)
	}
	// A live run always measures wall latency.
	if wl := rep.Measured.WallLatency; wl == nil {
		t.Error("no wall latency on a live run")
	} else if wl.P50 == 0 || wl.P99 < wl.P50 || wl.Max < wl.P99 {
		t.Errorf("degenerate wall latency table: %+v", *wl)
	}
	var txt bytes.Buffer
	if err := rep.WriteText(&txt); err != nil || txt.Len() == 0 {
		t.Errorf("WriteText: %v (%d bytes)", err, txt.Len())
	}
}

// TestDeterminism is the acceptance contract: two runs with one seed
// plan the same request and handshake counts and produce identical
// measured request/error counts.
func TestDeterminism(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Config{Seed: 42, Clients: 12, Requests: 3, Resume: 0.95, Concurrency: 6})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Plan != b.Plan {
		t.Errorf("plan sections differ:\n%+v\n%+v", a.Plan, b.Plan)
	}
	if a.Plan.Requests != 12*3 {
		t.Errorf("planned requests = %d, want %d", a.Plan.Requests, 12*3)
	}
	if a.Measured.Requests != b.Measured.Requests || a.Measured.Errors != b.Measured.Errors {
		t.Errorf("measured counts differ: %d/%d vs %d/%d",
			a.Measured.Requests, a.Measured.Errors, b.Measured.Requests, b.Measured.Errors)
	}
}

// TestClientsBounds pins the population guard: zero, negative and
// over-MaxClients configs must be rejected before any planning work,
// and MaxClients itself must be accepted by validation.
func TestClientsBounds(t *testing.T) {
	for _, n := range []int{0, -1, MaxClients + 1} {
		if _, err := (&Config{Seed: 1, Clients: n}).withDefaults(); err == nil {
			t.Errorf("Clients=%d accepted", n)
		}
	}
	cfg := Config{Seed: 1, Clients: MaxClients, Requests: 1}
	if _, err := cfg.withDefaults(); err != nil {
		t.Errorf("Clients=MaxClients rejected: %v", err)
	}
}

// TestResumeMixShapesPlan checks that the resumption knob steers the
// planned handshake mix: at 0 every reconnect is full, at 0.95 most
// resume, and the per-client first connection is always full.
func TestResumeMixShapesPlan(t *testing.T) {
	mk := func(resume float64) *plan {
		cfg, err := (&Config{Seed: 1, Clients: 50, Requests: 4, Resume: resume}).withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		return buildPlan(cfg)
	}
	if p := mk(0); p.resumed != 0 || p.full != 200 {
		t.Errorf("resume=0: full=%d resumed=%d", p.full, p.resumed)
	}
	p := mk(0.95)
	if p.full < 50 {
		t.Errorf("resume=0.95: full=%d, below the %d forced first handshakes", p.full, 50)
	}
	// 150 reconnects at 95%: expect the overwhelming majority resumed.
	if p.resumed < 120 {
		t.Errorf("resume=0.95: only %d resumed of 150 reconnects", p.resumed)
	}
}
