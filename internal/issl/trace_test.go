package issl

import (
	"testing"

	"repro/internal/crypto/prng"
	"repro/internal/race"
	"repro/internal/telemetry"
)

// phaseSeq extracts the hs.phase names emitted for one role, in order,
// along with the resumed flag each carried.
func phaseSeq(t *testing.T, tr *telemetry.Trace, role string) (phases []string, resumed []bool) {
	t.Helper()
	for _, ev := range tr.Events() {
		if ev.Layer != "issl" || ev.Name != "hs.phase" {
			continue
		}
		var evRole, phase string
		var res bool
		for _, a := range ev.Attrs {
			switch a.Key {
			case "role":
				evRole, _ = a.Value.(string)
			case "phase":
				phase, _ = a.Value.(string)
			case "resumed":
				res, _ = a.Value.(bool)
			case "dur_ns":
				if _, ok := a.Value.(uint64); !ok {
					t.Errorf("dur_ns attr is %T, want uint64", a.Value)
				}
			}
		}
		if evRole == role {
			phases = append(phases, phase)
			resumed = append(resumed, res)
		}
	}
	return phases, resumed
}

func wantPhases(t *testing.T, tr *telemetry.Trace, role string, want []string, wantResumed bool) {
	t.Helper()
	phases, resumed := phaseSeq(t, tr, role)
	if len(phases) != len(want) {
		t.Fatalf("%s phases = %v, want %v", role, phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("%s phases = %v, want %v", role, phases, want)
		}
		if resumed[i] != wantResumed {
			t.Errorf("%s phase %s resumed=%v, want %v", role, phases[i], resumed[i], wantResumed)
		}
	}
}

// TestHandshakePhaseTrace pins the observable shape of the handshake:
// a full handshake traces hello -> key_exchange -> finished on both
// roles; an abbreviated (resumed) handshake traces hello -> finished
// with no key_exchange, every event flagged resumed.
func TestHandshakePhaseTrace(t *testing.T) {
	cache := NewSessionCache(16)

	// Full handshake, separate traces per role so sequences are clean.
	cliTr, srvTr := telemetry.NewTrace(64), telemetry.NewTrace(64)
	cliCfg := Config{Profile: ProfileUnix, Rand: prng.NewXorshift(501), Trace: cliTr}
	srvCfg := Config{Profile: ProfileUnix, ServerKey: serverKey(t),
		Rand: prng.NewXorshift(502), Cache: cache, Trace: srvTr}
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	if cli.Resumed() || srv.Resumed() {
		t.Fatal("first handshake unexpectedly resumed")
	}
	full := []string{"hello", "key_exchange", "finished"}
	wantPhases(t, cliTr, "client", full, false)
	wantPhases(t, srvTr, "server", full, false)

	// Abbreviated handshake resuming the session just established.
	cliTr2, srvTr2 := telemetry.NewTrace(64), telemetry.NewTrace(64)
	cliCfg2 := Config{Profile: ProfileUnix, Rand: prng.NewXorshift(503),
		Resume: cli.Session(), Trace: cliTr2}
	srvCfg2 := Config{Profile: ProfileUnix, ServerKey: serverKey(t),
		Rand: prng.NewXorshift(504), Cache: cache, Trace: srvTr2}
	cli2, srv2 := handshakePair(t, cliCfg2, srvCfg2)
	if !cli2.Resumed() || !srv2.Resumed() {
		t.Fatalf("resumed: client=%v server=%v, want both", cli2.Resumed(), srv2.Resumed())
	}
	abbreviated := []string{"hello", "finished"}
	wantPhases(t, cliTr2, "client", abbreviated, true)
	wantPhases(t, srvTr2, "server", abbreviated, true)
}

// TestHandshakeCounters checks the full/resumed counters and the
// record/byte mirrors land on the configured registry.
func TestHandshakeCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	psk := []byte("rmc2000-preshared-master-secret!")
	cliCfg := Config{Profile: ProfileEmbedded, PSK: psk,
		Rand: prng.NewXorshift(601), Metrics: reg}
	srvCfg := Config{Profile: ProfileEmbedded, PSK: psk,
		Rand: prng.NewXorshift(602), Metrics: reg}
	cli, srv := handshakePair(t, cliCfg, srvCfg)

	// Both endpoints share the registry: two full handshakes completed.
	if got := reg.Counter("issl.handshakes_full").Value(); got != 2 {
		t.Errorf("handshakes_full = %d, want 2", got)
	}
	if got := reg.Counter("issl.handshakes_resumed").Value(); got != 0 {
		t.Errorf("handshakes_resumed = %d, want 0", got)
	}

	msg := []byte("counter check payload")
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		srv.Read(buf)
	}()
	if _, err := cli.Write(msg); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := reg.Counter("issl.bytes_out").Value(); got != uint64(len(msg)) {
		t.Errorf("bytes_out = %d, want %d", got, len(msg))
	}
	if got := reg.Counter("issl.bytes_in").Value(); got != uint64(len(msg)) {
		t.Errorf("bytes_in = %d, want %d", got, len(msg))
	}
	if got := reg.Counter("issl.records_out").Value(); got != 1 {
		t.Errorf("records_out = %d, want 1", got)
	}
}

// TestEmitPhaseNilTraceZeroAlloc pins the untraced handshake: with no
// Config.Trace, recording a phase allocates nothing.
func TestEmitPhaseNilTraceZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	c := &Conn{}
	role, phase := "server", "key_exchange"
	start := uint64(12345)
	if n := testing.AllocsPerRun(100, func() {
		start = c.emitPhase(role, phase, true, start) + 777
	}); n != 0 {
		t.Errorf("emitPhase with a nil trace: %v allocs/op, want 0", n)
	}
}
