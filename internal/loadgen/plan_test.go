package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// planDigest hashes every decision a plan hands the live fleet: each
// client's PRNG seed and, per request, fresh, forget, payload and
// arrivalNs, plus the planned totals.
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
			put(flag(rp.fresh))
			put(flag(rp.forget))
			put(uint64(rp.payload))
			put(rp.arrivalNs)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestPlanGolden pins the workload each seed plans, so a change to the
// plan's PRNG stream (a draw added, dropped or reordered) shows up as a
// changed workload rather than as a silent shift in committed reports.
// The digests were computed before the queueing model was removed and
// must not move.
func TestPlanGolden(t *testing.T) {
	want := map[string]string{
		"closed/0x1":   "7ba0f5d4fc3a30110d379da15280aa3e",
		"open/0x1":     "06450b96bd8e8a0b360f6335b11706fd",
		"closed/0x7":   "ae8ffcb9a25296618be87d3ca24aebf7",
		"open/0x7":     "0aef6818e56f488ec051f4271af09349",
		"closed/0xb":   "f0f4acc7235b40138c70d3d0f2bf3008",
		"open/0xb":     "938b7ed137c8eec6a053319dcfbe246f",
		"closed/0xd":   "bd3482b99bd5f868c499cc77b6e45017",
		"open/0xd":     "254c9f931a36fee9f202286394d88ce5",
		"closed/0xa11": "9f65aabb4692d0a853ded620516dc591",
		"open/0xa11":   "698e98c6d04b753f728378d2e8c0e13b",
	}
	for _, seed := range []uint64{1, 7, 11, 13, 0xA11} {
		for _, mode := range []Mode{ModeClosed, ModeOpen} {
			cfg, err := (&Config{Seed: seed, Clients: 24, Requests: 5, Mode: mode,
				RatePerSec: 400, Resume: 0.5, ChurnEvery: 2}).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%#x", mode, seed)
			got := planDigest(buildPlan(cfg))
			if got != want[name] {
				t.Errorf("plan %s digest = %s, want %s", name, got, want[name])
			}
		}
	}
}
