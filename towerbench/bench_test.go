package main

import (
	"errors"
	"testing"
	"time"
)

func TestPlanSameSeedSameInputs(t *testing.T) {
	for name, wl := range workloads {
		for conn := 0; conn < conns; conn++ {
			a, b, c := newPlanStream(wl, 7, conn), newPlanStream(wl, 7, conn), newPlanStream(wl, 8, conn)
			differs := false
			for i := 0; i < 2000; i++ {
				ra, rb, rc := a.next(), b.next(), c.next()
				if ra != rb {
					t.Fatalf("%s conn %d request %d: %+v != %+v for the same seed", name, conn, i, ra, rb)
				}
				differs = differs || ra != rc
			}
			if !differs && len(wl.payloads) > 1 {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same plan", name, conn)
			}
		}
	}
	x, y := newAESStream(3), newAESStream(3)
	for i := 0; i < 100; i++ {
		if x.next() != y.next() {
			t.Fatalf("AES input %d differs for the same seed", i)
		}
	}
}

func TestResumeEchoPlanShape(t *testing.T) {
	p := newPlanStream(workloads["resume-echo"], 1, 0)
	var offers, reconnects, newClients, big int
	const n = 20000
	for i := 0; i < n; i++ {
		r := p.next()
		if !r.reconnect {
			t.Fatalf("request %d does not reconnect", i)
		}
		if r.newClient != (i%4 == 0) {
			t.Fatalf("request %d: newClient = %v, want a new client every 4 requests", i, r.newClient)
		}
		if r.newClient && r.offer {
			t.Fatalf("request %d: a new client offers a session", i)
		}
		if r.offer {
			offers++
		}
		if !r.newClient {
			reconnects++
		}
		if r.newClient {
			newClients++
		}
		if r.payload == 4096 {
			big++
		}
	}
	if share := float64(offers) / float64(reconnects); share < 0.94 || share > 0.96 {
		t.Errorf("resume offers on %.3f of reconnects, want 0.95", share)
	}
	if share := float64(big) / n; share < 0.09 || share > 0.11 {
		t.Errorf("4096-byte payloads are %.3f of requests, want 0.10", share)
	}
}

func TestBoardFiguresRepeatExactly(t *testing.T) {
	var got [2]metrics
	for i := range got {
		rm, err := loadRabbit()
		if err != nil {
			t.Fatal(err)
		}
		got[i] = metrics{}
		if err := boardFigures(rm, got[i]); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range got[0] {
		if got[1][name] != m {
			t.Errorf("%s: %v then %v", name, m, got[1][name])
		}
		if m.Value <= 0 {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
}

// TestSmokeEachWorkload runs every workload briefly, traced, through
// the correctness gate.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"resume-echo", "full-handshake", "bulk-stream", "rabbit-aes"} {
		o := &options{workload: name, seed: 1, seconds: time.Second, trace: true}
		var out *outcome
		var err error
		if wl, ok := workloads[name]; ok {
			out, err = runNet(wl, o)
		} else {
			out, err = runRabbit(o)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.attempted == 0 || out.failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", name, out.attempted, out.failed)
		}
		// Spans around the calls into each layer must account for the
		// request: at most 5% of request time falls between them.
		if u := out.m["trace.unattributed_share"].Value; u < 0 || u > 0.05 {
			t.Errorf("%s: unattributed share of request time %.4f, want <= 0.05", name, u)
		}
		if name == "resume-echo" {
			// The repeated-resumption defect must stay visible: offers
			// fall back, and the fallbacks are counted.
			if out.m["issl.resume_fallbacks"].Value == 0 || out.m["issl.resume_hit_ratio"].Value >= 1 {
				t.Errorf("resume-echo: fallbacks %v, hit ratio %v", out.m["issl.resume_fallbacks"].Value,
					out.m["issl.resume_hit_ratio"].Value)
			}
		}
	}
}

// TestEchoMismatchFailsRun corrupts one byte in the backend's echo and
// expects the run to stop with an echo mismatch, not count an error.
func TestEchoMismatchFailsRun(t *testing.T) {
	wl := workloads["resume-echo"]
	w, err := newWorld(wl)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.mangle = func(b []byte) { b[len(b)/2] ^= 0x01 }
	c := newClient(w, wl, 0, 1)
	defer c.closeConn()
	_, err = runWindow([]*client{c}, 2*time.Second, false)
	if !errors.Is(err, errEchoMismatch) {
		t.Fatalf("runWindow error = %v, want an echo mismatch", err)
	}
}
