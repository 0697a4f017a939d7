package loadgen

import "repro/internal/crypto/prng"

// The workload plan is the determinism anchor: every per-request
// decision — how many bytes it carries, whether its connection offers
// the cached session or goes in cold — is drawn up front from the
// seed, before anything touches a socket, and the live vertical
// executes the plan against real stacks. Two runs with the same seed
// therefore share every decision, and the Plan section of the report
// is identical across runs.

// payloadClass is one entry of the payload size distribution.
type payloadClass struct {
	size, weight int
}

// payloads mixes the paper's workload shape: mostly small redirected
// requests, some page-sized, a tail of bulk transfers.
var payloads = []payloadClass{{64, 60}, {512, 30}, {4096, 10}}

// pickPayload draws a size from payloads.
func pickPayload(rng *prng.Xorshift) int {
	total := 0
	for _, c := range payloads {
		total += c.weight
	}
	r := rng.Intn(total)
	for _, c := range payloads {
		if r < c.weight {
			return c.size
		}
		r -= c.weight
	}
	return payloads[len(payloads)-1].size
}

// requestPlan is one request's precomputed decisions. Every request
// opens a fresh connection, so every request handshakes.
type requestPlan struct {
	// payload is the echo payload length in bytes.
	payload int
	// forget drops the cached session first, forcing a full handshake.
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

// buildPlan materializes the workload from the seed. Decisions are
// drawn client by client, request by request, in one fixed order —
// the whole point is that nothing here depends on execution timing.
func buildPlan(cfg *Config) *plan {
	master := prng.NewXorshift(cfg.Seed ^ 0x10AD6E11)
	p := &plan{clients: make([]clientPlan, cfg.Clients)}
	resumeBar := int(cfg.Resume * 1e6)
	for c := range p.clients {
		cp := &p.clients[c]
		cp.seed = master.Next64() | 1
		rng := prng.NewXorshift(master.Next64() | 1)
		cp.reqs = make([]requestPlan, cfg.Requests)
		for r := range cp.reqs {
			rp := &cp.reqs[r]
			// First connection has no session to offer; later ones
			// resume with probability cfg.Resume.
			rp.forget = r == 0 || rng.Intn(1e6) >= resumeBar
			if rp.forget {
				p.full++
			} else {
				p.resumed++
			}
			rp.payload = pickPayload(rng)
			rng.Intn(120_000) // retired model jitter; drawn so each seed keeps its workload
			p.requests++
		}
	}
	return p
}
