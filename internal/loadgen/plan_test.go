package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// planDigest hashes every decision a plan hands the live fleet: each
// client's PRNG seed and, per request, forget and payload, plus the
// planned totals. Each request also hashes a 1 (fresh connection) and
// a 0 (arrival time), so the digests pinned before every request
// reconnected in a closed loop still match.
func planDigest(p *plan) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	put(p.requests)
	put(p.full)
	put(p.resumed)
	for _, cp := range p.clients {
		put(cp.seed)
		put(uint64(len(cp.reqs)))
		for _, rp := range cp.reqs {
			put(1) // fresh
			put(flag(rp.forget))
			put(uint64(rp.payload))
			put(0) // arrival
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestPlanGolden pins the workload each seed plans, so a change to the
// plan's PRNG stream (a draw added, dropped or reordered) shows up as a
// changed workload rather than as a silent shift in committed reports.
// The digests were computed before the queueing model, the open-loop
// mode and the churn knob were removed, for the one workload left, and
// must not move.
func TestPlanGolden(t *testing.T) {
	want := map[uint64]string{
		0x1:   "b2455cea13b0f13033d2e7f5a04d2a9d",
		0x7:   "3aa6717231f72d192a1007ffb4168efc",
		0xb:   "9a411a99e703731f563247ff7d6ed739",
		0xd:   "1ce9f41dcf41c0ffe584f93ff1719b9d",
		0xa11: "a17613647d4f09300c92821c59697289",
	}
	for seed, digest := range want {
		cfg, err := (&Config{Seed: seed, Clients: 24, Requests: 5, Resume: 0.5}).withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		if got := planDigest(buildPlan(cfg)); got != digest {
			t.Errorf("plan %#x digest = %s, want %s", seed, got, digest)
		}
	}
}
