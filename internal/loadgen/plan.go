package loadgen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/crypto/prng"
)

// The workload plan is the determinism anchor: every per-request
// decision — when it arrives, how many bytes it carries, whether it
// rides the existing connection or churns to a fresh one, whether a
// fresh connection offers the cached session or goes in cold — is
// drawn up front from the seed, before anything touches a socket, and
// the live vertical executes the plan against real stacks. Two runs
// with the same seed therefore share every scheduling decision, and
// the Plan section of the report is identical across runs.

// PayloadClass is one entry of a payload size distribution.
type PayloadClass struct {
	Size   int
	Weight int
}

// PayloadDist is a weighted payload size distribution.
type PayloadDist []PayloadClass

// DefaultPayloads mixes the paper's workload shape: mostly small
// redirected requests, some page-sized, a tail of bulk transfers.
var DefaultPayloads = PayloadDist{{64, 60}, {512, 30}, {4096, 10}}

func (d PayloadDist) total() int {
	t := 0
	for _, c := range d {
		t += c.Weight
	}
	return t
}

// pick draws a size from the distribution.
func (d PayloadDist) pick(rng *prng.Xorshift) int {
	r := rng.Intn(d.total())
	for _, c := range d {
		if r < c.Weight {
			return c.Size
		}
		r -= c.Weight
	}
	return d[len(d)-1].Size
}

// ParsePayloads parses a "size:weight,size:weight" spec, e.g.
// "64:60,512:30,4096:10".
func ParsePayloads(s string) (PayloadDist, error) {
	var d PayloadDist
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		size, weight, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("loadgen: payload class %q: want size:weight", part)
		}
		sz, err := strconv.Atoi(size)
		if err != nil || sz <= 0 {
			return nil, fmt.Errorf("loadgen: payload size %q", size)
		}
		w, err := strconv.Atoi(weight)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("loadgen: payload weight %q", weight)
		}
		d = append(d, PayloadClass{Size: sz, Weight: w})
	}
	if len(d) == 0 {
		return nil, fmt.Errorf("loadgen: empty payload distribution")
	}
	sort.SliceStable(d, func(i, j int) bool { return d[i].Size < d[j].Size })
	return d, nil
}

// requestPlan is one request's precomputed decisions.
type requestPlan struct {
	// arrivalNs is the planned arrival after the run starts (open
	// loop; 0 in closed loop, where arrival is the previous request's
	// completion).
	arrivalNs uint64
	// payload is the echo payload length in bytes.
	payload int
	// fresh starts a new connection (handshake) for this request.
	fresh bool
	// forget drops the cached session first, forcing a full handshake
	// (only meaningful with fresh).
	forget bool
}

// clientPlan is one virtual client's request sequence.
type clientPlan struct {
	// seed feeds the client's live-run PRNG (handshake nonces, backoff
	// jitter).
	seed uint64
	reqs []requestPlan
}

// plan is a fully materialized workload.
type plan struct {
	clients []clientPlan
	// requests is the total planned request count.
	requests uint64
	// full/resumed count planned handshakes, assuming the server-side
	// session cache holds every offered session (the measured section
	// reports what the live cache actually granted).
	full, resumed uint64
}

// expFloat turns a PRNG draw into (0,1] suitable for -ln(u). The +0.5
// keeps u strictly positive so Log never sees zero.
func expFloat(rng *prng.Xorshift) float64 {
	return (float64(rng.Next64()>>11) + 0.5) / (1 << 53)
}

// buildPlan materializes the workload from the seed. Decisions are
// drawn client by client, request by request, in one fixed order —
// the whole point is that nothing here depends on execution timing.
func buildPlan(cfg *Config) *plan {
	master := prng.NewXorshift(cfg.Seed ^ 0x10AD6E11)
	p := &plan{clients: make([]clientPlan, cfg.Clients)}
	resumeBar := int(cfg.Resume * 1e6)
	// Open loop: aggregate RatePerSec split evenly over clients, each an
	// independent Poisson process (the superposition is Poisson at the
	// aggregate rate).
	perClientRate := 0.0
	if cfg.Mode == ModeOpen && cfg.Clients > 0 {
		perClientRate = cfg.RatePerSec / float64(cfg.Clients)
	}
	for c := range p.clients {
		cp := &p.clients[c]
		cp.seed = master.Next64() | 1
		rng := prng.NewXorshift(master.Next64() | 1)
		cp.reqs = make([]requestPlan, cfg.Requests)
		var clock uint64 // planned arrival clock, open loop only
		for r := range cp.reqs {
			rp := &cp.reqs[r]
			rp.fresh = r == 0 || (cfg.ChurnEvery > 0 && r%cfg.ChurnEvery == 0)
			if rp.fresh {
				// First connection has no session to offer; later ones
				// resume with probability cfg.Resume.
				rp.forget = r == 0 || rng.Intn(1e6) >= resumeBar
				if rp.forget {
					p.full++
				} else {
					p.resumed++
				}
			}
			rp.payload = cfg.Payloads.pick(rng)
			rng.Intn(120_000) // retired model jitter; drawn so each seed keeps its workload
			if cfg.Mode == ModeOpen {
				// Exponential inter-arrival, rounded to whole nanoseconds
				// immediately so the plan replays bit-exactly.
				dt := -math.Log(expFloat(rng)) / perClientRate * 1e9
				clock += uint64(dt)
				rp.arrivalNs = clock
			}
			p.requests++
		}
	}
	return p
}
