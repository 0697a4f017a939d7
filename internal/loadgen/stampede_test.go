package loadgen

import (
	"runtime"
	"testing"
)

// runStampede executes one reconnect-stampede run and checks the
// invariants every stampede must hold regardless of pool size: zero
// errors, byte-exact echo, every handshake full (the scenario forces
// 0% resumption), and — when a pool is configured — every private-key
// operation accounted for by the pool.
func runStampede(t *testing.T, workers, keyBits int) *Report {
	t.Helper()
	rep, err := Run(Config{
		Seed:        0x57A3,
		Clients:     16, // fits the listen backlog: no dial-retry noise
		Requests:    3,
		Stampede:    true,
		SignWorkers: workers,
		KeyBits:     keyBits,
	})
	if err != nil {
		t.Fatalf("stampede run (pool=%d): %v", workers, err)
	}
	if !rep.Stampede || rep.Resume != 0 || rep.Concurrency != rep.Clients {
		t.Fatalf("stampede config not forced: resume=%v concurrency=%d",
			rep.Resume, rep.Concurrency)
	}
	m := &rep.Measured
	wantHS := uint64(rep.Clients * rep.Requests)
	if m.Errors != 0 || m.EchoMismatches != 0 || m.DialFailures != 0 {
		t.Fatalf("stampede degraded (pool=%d): %d errors, %d mismatches, %d dial failures",
			workers, m.Errors, m.EchoMismatches, m.DialFailures)
	}
	if m.Requests != wantHS || m.HandshakesFull != wantHS || m.HandshakesResumed != 0 {
		t.Fatalf("stampede handshakes (pool=%d): %d ok, %d full, %d resumed; want %d all-full",
			workers, m.Requests, m.HandshakesFull, m.HandshakesResumed, wantHS)
	}
	if workers > 0 && m.SignPoolOps != wantHS {
		t.Fatalf("signpool_ops = %d, want %d (every key-exchange decrypt pooled)",
			m.SignPoolOps, wantHS)
	}
	if workers == 0 && m.SignPoolOps != 0 {
		t.Fatalf("signpool_ops = %d with no pool configured", m.SignPoolOps)
	}
	if m.HandshakesPerSec <= 0 {
		t.Fatalf("HandshakesPerSec = %v, want > 0", m.HandshakesPerSec)
	}
	return rep
}

// TestStampedeAllFresh pins the scenario semantics: 0% resumption, a
// full handshake per request, zero errors, every RSA op through the
// pool — the correctness half of the stampede acceptance.
func TestStampedeAllFresh(t *testing.T) {
	runStampede(t, 1, 1024)
	runStampede(t, 0, 512) // poolless baseline stays clean too
}

// TestStampedePoolScaling is the throughput half: with an RSA-bound
// handshake (2048-bit key) a 4-worker sign pool must complete the
// stampede at >= 2x the handshakes/sec of a 1-worker pool. RSA here is
// pure compute, so the assertion only means anything when the host can
// actually run 4 workers at once.
func TestStampedePoolScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("stampede scaling run is seconds of RSA; skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("sign-pool scaling needs >= 4 CPUs (have %d): pool workers serialize on one core", runtime.NumCPU())
	}
	hs1 := runStampede(t, 1, 2048).Measured.HandshakesPerSec
	hs4 := runStampede(t, 4, 2048).Measured.HandshakesPerSec
	t.Logf("stampede handshakes/sec: pool=1 %.1f, pool=4 %.1f (%.2fx)", hs1, hs4, hs4/hs1)
	if hs4 < 2*hs1 {
		t.Errorf("pool=4 %.1f hs/s < 2x pool=1 %.1f hs/s", hs4, hs1)
	}
}
