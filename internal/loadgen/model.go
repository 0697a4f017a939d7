package loadgen

import (
	"container/heap"

	"repro/internal/telemetry"
)

// The virtual-time model. Wall-clock latencies through live goroutines
// and a simulated wire cannot replay bit-exactly, so the report's
// deterministic latency axis comes from here instead: a discrete-event
// queueing simulation of the redirector — a FIFO queue in front of a
// pool of identical servers — executed in virtual nanoseconds on a
// telemetry.ManualClock. Service times are modeled from the measured
// costs of the real vertical (EXPERIMENTS.md E9: full handshake
// ~2.6 ms, abbreviated resumption ~160 µs on the reference host), plus
// a per-byte cost and the plan's precomputed jitter. The model is a
// calibrated estimate, not a measurement — the Measured section of the
// report carries the live counters — but it is exactly reproducible,
// which is what a regression gate needs.
const (
	// modelConnectNs is TCP connect plus teardown per fresh connection.
	modelConnectNs = 300_000
	// modelFullNs / modelResumedNs are the two handshake service times.
	modelFullNs    = 2_600_000
	modelResumedNs = 160_000
	// modelRequestNs is the fixed echo round-trip cost per request.
	modelRequestNs = 80_000
	// modelPerByteNs covers encrypt + redirect + echo + decrypt per
	// payload byte (both directions folded in).
	modelPerByteNs = 30
	// modelJitterSpanNs bounds the plan's per-request service jitter.
	modelJitterSpanNs = 120_000
)

// serviceNs models one request's service time.
func serviceNs(rp *requestPlan) uint64 {
	ns := uint64(modelRequestNs) + uint64(rp.payload)*modelPerByteNs + rp.jitterNs
	if rp.fresh {
		ns += modelConnectNs
		if rp.forget {
			ns += modelFullNs
		} else {
			ns += modelResumedNs
		}
	}
	return ns
}

// candidate is a request that will become ready at ready (its planned
// arrival, or its predecessor's completion). The heap orders by
// (ready, client, idx) — a total order, so the simulation is
// deterministic regardless of map iteration or goroutine scheduling
// (there are no goroutines here at all).
type candidate struct {
	ready       uint64
	client, idx int32
}

type candidateHeap []candidate

func (h candidateHeap) Len() int { return len(h) }
func (h candidateHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	if h[i].client != h[j].client {
		return h[i].client < h[j].client
	}
	return h[i].idx < h[j].idx
}
func (h candidateHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x any)   { *h = append(*h, x.(candidate)) }
func (h *candidateHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

type serverHeap []uint64

func (h serverHeap) Len() int           { return len(h) }
func (h serverHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h serverHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *serverHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *serverHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// modelResult is the deterministic half of the report's raw material.
type modelResult struct {
	durationNs uint64
	requests   uint64
	latency    *telemetry.Histogram
}

// runModel replays the plan through the queueing model. The server
// pool is the effective concurrency bound: the client-side closed-loop
// width, further capped by the redirector's admission bound when one
// is configured (an admitted-or-queued approximation of the live
// refuse-and-retry behavior).
func runModel(cfg *Config, p *plan) *modelResult {
	pool := cfg.Concurrency
	if cfg.MaxInflight > 0 && cfg.MaxInflight < pool {
		pool = cfg.MaxInflight
	}
	if pool < 1 {
		pool = 1
	}

	clock := telemetry.NewManualClock(0)
	res := &modelResult{latency: &telemetry.Histogram{}}

	servers := make(serverHeap, pool) // all free at t=0
	heap.Init(&servers)
	cands := make(candidateHeap, 0, len(p.clients))
	for c := range p.clients {
		if len(p.clients[c].reqs) == 0 {
			continue
		}
		cands = append(cands, candidate{ready: p.clients[c].reqs[0].arrivalNs, client: int32(c)})
	}
	heap.Init(&cands)

	for cands.Len() > 0 {
		cand := heap.Pop(&cands).(candidate)
		clock.Set(cand.ready)
		rp := &p.clients[cand.client].reqs[cand.idx]
		free := heap.Pop(&servers).(uint64)
		start := max(cand.ready, free)
		finish := start + serviceNs(rp)
		heap.Push(&servers, finish)
		res.latency.Observe(finish - cand.ready) // queue wait + service
		res.requests++
		if finish > res.durationNs {
			res.durationNs = finish
		}
		if next := cand.idx + 1; int(next) < len(p.clients[cand.client].reqs) {
			ready := finish // closed loop: go again on completion
			if cfg.Mode == ModeOpen {
				// Open loop: the planned arrival fires regardless of
				// completion, except a client cannot overlap itself.
				ready = max(p.clients[cand.client].reqs[next].arrivalNs, finish)
			}
			heap.Push(&cands, candidate{ready: ready, client: cand.client, idx: next})
		}
	}
	clock.Set(res.durationNs)
	return res
}
