package issl

import (
	"sync"

	"repro/internal/crypto/rsa"
	"repro/internal/telemetry"
)

// SignPool runs the one RSA private-key operation of a full handshake,
// the KeyExchange decrypt, on a bounded worker pool instead of inline
// on each connection's goroutine. A cache-flush reconnect stampede
// lands N simultaneous full handshakes on the server; without the pool
// every one of them grinds its own CRT exponentiation wherever the
// scheduler put it, with it the private-key work is confined to a fixed
// set of workers sized to the cores the operator wants to spend on
// handshakes — the software shape of the Multi-Core SSL/TLS Security
// Processor's parallel-crypto-core tier.
//
// The Garner/CRT precompute inside rsa.PrivateKey is per-key and
// lazily built under a sync.Once, so all workers hammering one server
// key share a single precompute — submitting by *rsa.PrivateKey is
// what makes that sharing automatic.
//
// Queue discipline: the submit path tries a non-blocking enqueue
// first; when the queue is full it counts issl.signpool_queue_full and
// then blocks until a slot frees. Saturation therefore degrades to
// graceful queuing (callers wait their turn), never to an error — a
// stampede makes handshakes slower, not failed.
//
// A nil *SignPool is valid everywhere one is accepted and means "run
// the operation inline", so single-tenant callers pay nothing.
type SignPool struct {
	reqs   chan signReq
	wg     sync.WaitGroup
	mu     sync.RWMutex // guards closed vs in-flight submits
	closed bool

	ops       *telemetry.Counter
	queueFull *telemetry.Counter
	depth     *telemetry.Gauge
}

type signReq struct {
	op   func() ([]byte, error)
	done chan signResult
}

type signResult struct {
	out []byte
	err error
}

// NewSignPool starts workers goroutines consuming a queue of depth
// queueLen (both floored at 1) and registers issl.signpool_* telemetry
// on reg (nil-safe). Close releases the workers.
func NewSignPool(workers, queueLen int, reg *telemetry.Registry) *SignPool {
	if workers < 1 {
		workers = 1
	}
	if queueLen < 1 {
		queueLen = 1
	}
	p := &SignPool{
		reqs:      make(chan signReq, queueLen),
		ops:       reg.Counter("issl.signpool_ops"),
		queueFull: reg.Counter("issl.signpool_queue_full"),
		depth:     reg.Gauge("issl.signpool_queue_depth"),
	}
	reg.Gauge("issl.signpool_workers").Set(int64(workers))
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *SignPool) worker() {
	defer p.wg.Done()
	for req := range p.reqs {
		p.depth.Add(-1)
		out, err := req.op()
		p.ops.Inc()
		req.done <- signResult{out, err}
	}
}

// Close stops the workers after the queue drains. Operations submitted
// after Close run inline on the caller, so draining connections still
// finish their handshakes.
func (p *SignPool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.reqs)
	p.mu.Unlock()
	p.wg.Wait()
}

// run executes op on the pool, blocking (gracefully, counted) when the
// queue is saturated. Nil and closed pools run op inline. The read
// lock spans the enqueue so Close cannot close the channel out from
// under a blocked submit; workers keep draining until the channel
// actually closes, so a blocked submit always completes.
func (p *SignPool) run(op func() ([]byte, error)) ([]byte, error) {
	if p == nil {
		return op()
	}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return op()
	}
	req := signReq{op: op, done: make(chan signResult, 1)}
	select {
	case p.reqs <- req:
		p.depth.Add(1)
	default:
		p.queueFull.Inc()
		p.reqs <- req
		p.depth.Add(1)
	}
	p.mu.RUnlock()
	res := <-req.done
	return res.out, res.err
}

// Decrypt runs key.DecryptPKCS1(ct) on the pool.
func (p *SignPool) Decrypt(key *rsa.PrivateKey, ct []byte) ([]byte, error) {
	return p.run(func() ([]byte, error) { return key.DecryptPKCS1(ct) })
}
