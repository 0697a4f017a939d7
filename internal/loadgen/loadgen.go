// Package loadgen is the capacity-testing subsystem: a seeded
// virtual-client fleet that drives the full vertical this repo
// reproduces — netsim wire, tcpip stacks, issl handshake, the
// redirector service, a plaintext backend — under configurable
// workloads, and reports the throughput and latency percentiles it
// measured.
//
// The paper's service went from a workstation prototype to a 30 MHz
// board by being measured at every step; loadgen is that measurement
// harness for this reproduction. One run reports two things:
//
//   - Plan: the seeded workload plan's request and handshake counts.
//     Every per-request decision is drawn from the seed before anything
//     touches a socket, so two runs with one seed offer the same
//     workload, and the live handshake mix can be checked against it.
//   - Measured: the plan executed against the live stack, with
//     byte-exact echo verification, a private telemetry registry
//     counting what the server actually did (handshakes granted full
//     vs resumed, admission refusals, bytes redirected), and every
//     request's wall-clock latency in one histogram (not replayable).
//
// Workload knobs cover the paper's operating envelope: closed-loop
// concurrency or open-loop Poisson arrivals, session-resumption mix
// (the Goldberg et al. cache hit rate), connection churn, and a
// weighted payload size distribution.
package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/redirector"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// Mode selects how load is offered.
type Mode int

const (
	// ModeClosed runs a fixed-width closed loop: Concurrency clients
	// are in flight at any instant; each issues its next request the
	// moment the previous completes.
	ModeClosed Mode = iota
	// ModeOpen offers requests on a Poisson schedule at RatePerSec
	// regardless of completions (per client, a request still waits for
	// that client's previous one).
	ModeOpen
)

func (m Mode) String() string {
	if m == ModeOpen {
		return "open"
	}
	return "closed"
}

// Service ports inside the loadgen world.
const (
	redirectorPort = 4443
	backendPort    = 9000
)

// Config parameterizes a load run. The zero value is unusable; Run
// fills defaults for everything but Clients. Measurement has no knobs:
// a live run always counts into a private telemetry registry and
// records every request's wall latency.
type Config struct {
	// Seed drives every random decision: the workload plan, handshake
	// nonces, the server key. Same seed, same plan.
	Seed uint64
	// Clients is the virtual client population. Required.
	Clients int
	// Requests is issued per client (default 2).
	Requests int
	// Mode offers load closed- or open-loop.
	Mode Mode
	// RatePerSec is the aggregate offered arrival rate (open loop;
	// default 200).
	RatePerSec float64
	// Concurrency caps simultaneously active clients (default 32) —
	// the closed-loop width, and a safety bound in open loop.
	Concurrency int
	// Resume is the probability a reconnecting client offers its
	// cached session (0, 0.5, 0.95 are the canonical mixes). The first
	// connection of a client is always a full handshake.
	Resume float64
	// ChurnEvery reconnects every N requests (default 1: every request
	// is a fresh connection, the handshake-bound workload; 0 keeps one
	// connection per client for all its requests).
	ChurnEvery int
	// Payloads is the request size distribution (default
	// DefaultPayloads).
	Payloads PayloadDist
	// MaxInflight passes the redirector's admission bound through
	// (0 = unbounded; per instance in cluster mode).
	MaxInflight int
	// Stampede runs the reconnect-stampede scenario: the whole fleet is
	// held at a start gate and released at once, resumption is forced to
	// 0% and every request reconnects — the worst-case full-handshake
	// burst a restarted service absorbs. Implies Concurrency = Clients.
	Stampede bool
	// SignWorkers sizes the redirector's RSA sign/decrypt worker pool
	// (0 = no pool, key ops run inline per connection; per instance in
	// cluster mode). See issl.SignPool.
	SignWorkers int
	// KeyBits sizes the server's RSA key (default 512 — the historical
	// loadgen key; 1024 makes the handshake RSA-bound, the stampede
	// scenario's natural setting).
	KeyBits int
	// Instances runs the redirector as a fleet behind the L4 balancer
	// (internal/cluster) when > 1: N instances, each with its own
	// stack, session cache and telemetry registry, sharing only the
	// sealed-ticket key material. 0 or 1 keeps the single redirector.
	Instances int
	// Policy selects the balancer policy: "hash" (consistent hash,
	// default) or "least" (least inflight). Cluster mode only.
	Policy string
	// KillAfter kills instance KillNode that long into the measured
	// run — the node-kill chaos plan (0 = no kill; cluster mode only).
	// RestartAfter restarts it that long after the kill (0 = stays
	// dead). The post-kill recovery time lands in the cluster report.
	KillAfter    time.Duration
	KillNode     int
	RestartAfter time.Duration
	// RequestRetries retries a failed request on a fresh connection
	// (default 0: a failure counts immediately). A well-behaved client
	// riding out a node kill sets this; byte-exactness violations are
	// counted separately and are never retried away silently.
	RequestRetries int
	// CacheSessions bounds the server session cache (default
	// 2*Clients).
	CacheSessions int
	// Faults degrades the wire (e.g. chaos.SoakPlan); nil runs clean.
	Faults *netsim.FaultPlan
	// HubLatency adds one-way frame delay.
	HubLatency time.Duration
	// Plain disables the issl layer: the paper's plaintext baseline.
	Plain bool

	// churnSet marks ChurnEvery=0 as intentional (see KeepConnections).
	churnSet bool
}

// MaxClients bounds the fleet size: the plan is O(Clients) in memory,
// so anything past this is a typo'd flag, not a workload.
const MaxClients = 1 << 20

func (cfg *Config) withDefaults() (*Config, error) {
	c := *cfg
	if c.Clients <= 0 {
		return nil, fmt.Errorf("loadgen: Clients must be positive")
	}
	if c.Clients > MaxClients {
		return nil, fmt.Errorf("loadgen: Clients %d exceeds limit %d", c.Clients, MaxClients)
	}
	if c.Stampede {
		// All-fresh, all-at-once: no resumption, a reconnect per
		// request, the whole fleet in flight simultaneously.
		c.Resume = 0
		c.ChurnEvery = 1
		c.churnSet = false
		c.Concurrency = c.Clients
	}
	if c.SignWorkers < 0 {
		return nil, fmt.Errorf("loadgen: SignWorkers must be >= 0")
	}
	switch c.KeyBits {
	case 0:
		c.KeyBits = 512
	case 512, 768, 1024, 2048:
	default:
		return nil, fmt.Errorf("loadgen: KeyBits %d not in {512, 768, 1024, 2048}", c.KeyBits)
	}
	if c.Requests <= 0 {
		c.Requests = 2
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 200
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 32
	}
	if c.Concurrency > c.Clients {
		c.Concurrency = c.Clients
	}
	if c.Resume < 0 || c.Resume > 1 {
		return nil, fmt.Errorf("loadgen: Resume must be in [0,1]")
	}
	if c.ChurnEvery < 0 {
		return nil, fmt.Errorf("loadgen: ChurnEvery must be >= 0")
	}
	if cfg.ChurnEvery == 0 && !cfg.churnSet {
		c.ChurnEvery = 1
	}
	if len(c.Payloads) == 0 {
		c.Payloads = DefaultPayloads
	}
	if c.CacheSessions <= 0 {
		c.CacheSessions = 2 * c.Clients
	}
	if c.Instances < 0 {
		return nil, fmt.Errorf("loadgen: Instances must be >= 0")
	}
	switch c.Policy {
	case "", "hash", "least":
	default:
		return nil, fmt.Errorf("loadgen: unknown policy %q", c.Policy)
	}
	if c.Instances > 1 && (c.KillNode < 0 || c.KillNode >= c.Instances) {
		return nil, fmt.Errorf("loadgen: KillNode %d out of range for %d instances", c.KillNode, c.Instances)
	}
	if c.RequestRetries < 0 {
		return nil, fmt.Errorf("loadgen: RequestRetries must be >= 0")
	}
	return &c, nil
}

// KeepConnections marks ChurnEvery=0 as intentional: one connection
// per client, all requests multiplexed over it (by default
// ChurnEvery=0 is treated as unset and becomes 1).
func (cfg *Config) KeepConnections() { cfg.churnSet = true }

// Run executes the workload and returns the SLO report.
func Run(cfg Config) (*Report, error) {
	c, err := (&cfg).withDefaults()
	if err != nil {
		return nil, err
	}
	p := buildPlan(c)

	rep := &Report{
		Seed:        c.Seed,
		Clients:     c.Clients,
		Requests:    c.Requests,
		Mode:        c.Mode.String(),
		Concurrency: c.Concurrency,
		Resume:      c.Resume,
		ChurnEvery:  c.ChurnEvery,
		MaxInflight: c.MaxInflight,
		Secure:      !c.Plain,
		Faulty:      c.Faults != nil,
		Stampede:    c.Stampede,
		SignWorkers: c.SignWorkers,
	}
	if !c.Plain {
		rep.KeyBits = c.KeyBits
	}
	if c.Instances > 1 {
		rep.Instances = c.Instances
		rep.Policy = c.Policy
		if rep.Policy == "" {
			rep.Policy = "hash"
		}
	}
	if c.Mode == ModeOpen {
		rep.RatePerSec = c.RatePerSec
	}
	rep.Plan = PlanReport{
		Requests:          p.requests,
		HandshakesFull:    p.full,
		HandshakesResumed: p.resumed,
	}
	measured, err := runReal(c, p)
	if err != nil {
		return nil, err
	}
	rep.Measured = *measured
	return rep, nil
}

// fleetCounters aggregates what the client fleet saw.
type fleetCounters struct {
	ok, errs, bytes             atomic.Uint64
	dialAttempts, dialFailures  atomic.Uint64
	fullHandshakes, resumptions atomic.Uint64
	resumeFallbacks             atomic.Uint64
	mismatches                  atomic.Uint64 // byte-exactness violations (never retried away)
	retries                     atomic.Uint64 // requests that needed a fresh-connection retry
}

// killState tracks the node-kill chaos timeline: when the kill landed
// and when the fleet first completed a request afterwards — the
// service-level recovery bound the cluster report publishes.
type killState struct {
	killedAt atomic.Int64 // unix ns; 0 = not (yet) killed
	firstOk  atomic.Int64 // unix ns of first success after the kill
}

func (ks *killState) noteOK() {
	if ks == nil {
		return
	}
	if ks.killedAt.Load() != 0 && ks.firstOk.Load() == 0 {
		ks.firstOk.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// recoveryNs returns the kill -> first-success gap, if both happened.
func (ks *killState) recoveryNs() uint64 {
	ka, fo := ks.killedAt.Load(), ks.firstOk.Load()
	if ka == 0 || fo == 0 || fo < ka {
		return 0
	}
	return uint64(fo - ka)
}

// runReal executes the plan against the live vertical: hub, three
// stacks, a plaintext echo backend, the secure redirector with the
// sharded session cache and admission control, and the client fleet.
func runReal(cfg *Config, p *plan) (*MeasuredReport, error) {
	hub := netsim.NewHub()
	defer hub.Close()
	if cfg.HubLatency > 0 {
		hub.SetLatency(cfg.HubLatency)
	}
	if cfg.Faults != nil {
		if err := hub.SetFaultPlan(cfg.Faults); err != nil {
			return nil, err
		}
	}
	mk := func(last byte) (*tcpip.Stack, error) {
		return tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, last))
	}
	cli, err := mk(1)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	mid, err := mk(2)
	if err != nil {
		return nil, err
	}
	defer mid.Close()
	back, err := mk(3)
	if err != nil {
		return nil, err
	}
	defer back.Close()

	if err := startBackend(back); err != nil {
		return nil, err
	}

	if cfg.Instances > 1 {
		// The mid stack at 10.0.0.2 goes unused in cluster mode — the
		// balancer takes that address so the client fleet cannot tell
		// one redirector from a fleet of them.
		mid.Close()
		return runRealCluster(cfg, p, hub, cli, back)
	}

	reg := telemetry.NewRegistry()
	rcfg := redirector.Config{
		ListenPort:   redirectorPort,
		Target:       back.Addr(),
		TargetPort:   backendPort,
		Secure:       !cfg.Plain,
		MaxInflight:  cfg.MaxInflight,
		SessionCache: issl.NewSessionCache(cfg.CacheSessions),
		SignWorkers:  cfg.SignWorkers,
		RandSeed:     cfg.Seed ^ 0x5EC0DE5EC0DE,
		Metrics:      reg,
	}
	if !cfg.Plain {
		key, err := rsa.GenerateKey(prng.NewXorshift(cfg.Seed^0x4B455947454E), cfg.KeyBits)
		if err != nil {
			return nil, err
		}
		rcfg.ServerKey = key
	}
	srv, err := redirector.NewUnixServer(mid, rcfg)
	if err != nil {
		return nil, err
	}
	go srv.Serve()
	defer srv.Close()

	fc, wall, wallHist := runFleet(cfg, cli, p, nil)

	m := &MeasuredReport{
		DurationNs:        uint64(wall.Nanoseconds()),
		Requests:          fc.ok.Load(),
		Errors:            fc.errs.Load(),
		EchoMismatches:    fc.mismatches.Load(),
		Retries:           fc.retries.Load(),
		ResumeFallbacks:   fc.resumeFallbacks.Load(),
		BytesEchoed:       fc.bytes.Load(),
		HandshakesFull:    reg.Counter("issl.handshakes_full").Value(),
		HandshakesResumed: reg.Counter("issl.handshakes_resumed").Value(),
		HandshakesFailed:  reg.Counter("issl.handshakes_failed").Value(),
		Accepted:          reg.Counter("redirector.accepted").Value(),
		Refused:           reg.Counter("redirector.refused").Value(),
		AdmissionRefused:  reg.Counter("redirector.refused_admission").Value(),
		DialAttempts:      fc.dialAttempts.Load(),
		DialFailures:      fc.dialFailures.Load(),
		SignPoolOps:       reg.Counter("issl.signpool_ops").Value(),
		SignPoolQueueFull: reg.Counter("issl.signpool_queue_full").Value(),
	}
	if wall > 0 {
		m.RPS = float64(m.Requests) / wall.Seconds()
		m.HandshakesPerSec = float64(m.HandshakesFull+m.HandshakesResumed) / wall.Seconds()
	}
	pct := percentilesFrom(wallHist)
	m.WallLatency = &pct
	return m, nil
}

// runFleet launches the virtual-client fleet against the service at
// 10.0.0.2, waits it out, and returns the fleet counters, the measured
// window and the per-request wall latencies. ks (optional) observes
// the node-kill timeline for the recovery bound.
func runFleet(cfg *Config, cli *tcpip.Stack, p *plan, ks *killState) (*fleetCounters, time.Duration, *telemetry.Histogram) {
	var (
		fc       fleetCounters
		wallHist telemetry.Histogram
	)
	sem := make(chan struct{}, cfg.Concurrency)

	// The stampede gate: every client goroutine parks here until the
	// whole fleet is spawned, then the close releases them into their
	// first dial simultaneously. Non-stampede runs pre-close the gate so
	// clients launch as they spawn.
	gate := make(chan struct{})
	if !cfg.Stampede {
		close(gate)
	}
	start := time.Now()

	var wg sync.WaitGroup
	for ci := range p.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			<-gate
			runClient(cfg, cli, &p.clients[ci], ci, sem, start, &fc, &wallHist, ks)
		}(ci)
	}
	if cfg.Stampede {
		start = time.Now() // the measured window starts at the release
		close(gate)
	}
	wg.Wait()
	return &fc, time.Since(start), &wallHist
}

// startBackend serves plaintext echo until its stack closes.
func startBackend(s *tcpip.Stack) error {
	l, err := s.Listen(backendPort, tcpip.ListenBacklog)
	if err != nil {
		return err
	}
	go func() {
		for {
			// Block until the stack closes the listener. A timed
			// Accept ends the backend after any quiet spell (say,
			// every client slot waiting out a request timeout on a
			// half-open connection), and every later request is then
			// refused.
			conn, err := l.Accept(0)
			if err != nil {
				return
			}
			go func(c *tcpip.TCB) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.ReadDeadline(buf, time.Now().Add(30*time.Second))
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return nil
}

// requestTimeout bounds one echo round trip; generous because a
// thousand clients time-share one host CPU with RSA in the middle.
const requestTimeout = 60 * time.Second

// runClient executes one client's planned request sequence.
func runClient(cfg *Config, stack *tcpip.Stack, cp *clientPlan, ci int,
	sem chan struct{}, start time.Time, fc *fleetCounters,
	wallHist *telemetry.Histogram, ks *killState) {

	d := &issl.Dialer{
		Dial: func() (io.ReadWriteCloser, error) {
			return stack.Connect(tcpip.IP4(10, 0, 0, 2), redirectorPort, 10*time.Second)
		},
		Config: issl.Config{
			Profile:          issl.ProfileUnix,
			Rand:             prng.NewXorshift(cp.seed),
			HandshakeTimeout: requestTimeout,
		},
		Policy: issl.RetryPolicy{MaxAttempts: 6, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second},
	}

	var (
		conn     *issl.Conn
		tr       io.ReadWriteCloser
		plainTCB *tcpip.TCB
	)
	closeConn := func() {
		if conn != nil {
			conn.Close()
			conn = nil
		}
		if tr != nil {
			tr.Close()
			tr = nil
		}
		if plainTCB != nil {
			plainTCB.Close()
			plainTCB = nil
		}
	}
	defer closeConn()

	for ri := range cp.reqs {
		rp := &cp.reqs[ri]

		// Open loop: hold the planned arrival schedule against the wall
		// clock.
		if cfg.Mode == ModeOpen {
			if wait := time.Duration(rp.arrivalNs) - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}

		attempt := func(fresh, first bool) error {
			if fresh {
				closeConn()
				if cfg.Plain {
					tcb, err := stack.Connect(tcpip.IP4(10, 0, 0, 2), redirectorPort, 10*time.Second)
					if err != nil {
						fc.dialAttempts.Add(1)
						fc.dialFailures.Add(1)
						return err
					}
					fc.dialAttempts.Add(1)
					plainTCB = tcb
				} else {
					if rp.forget && first {
						d.ForgetSession()
					}
					before := d.Stats()
					c, t, err := d.DialWithRetry()
					after := d.Stats()
					fc.dialAttempts.Add(after.Attempts - before.Attempts)
					if err != nil {
						fc.dialFailures.Add(1)
						return err
					}
					fc.fullHandshakes.Add(after.FullHandshakes - before.FullHandshakes)
					fc.resumptions.Add(after.Resumptions - before.Resumptions)
					fc.resumeFallbacks.Add(after.ResumeFallbacks - before.ResumeFallbacks)
					conn, tr = c, t
				}
			}
			return echoOnce(conn, plainTCB, ci, ri, rp.payload)
		}

		sem <- struct{}{} // closed-loop width / open-loop safety bound
		reqStart := time.Now()
		err := attempt(rp.fresh, true)
		// A well-behaved client rides out a dying connection (a killed
		// node, a mid-transfer abort) by retrying on a fresh one — but
		// an echo MISMATCH is corruption, counted and never retried:
		// retrying it away would hide exactly the defect the byte-exact
		// check exists to catch.
		for try := 0; err != nil && !errors.Is(err, errEchoMismatch) && try < cfg.RequestRetries; try++ {
			fc.retries.Add(1)
			err = attempt(true, false)
		}
		<-sem

		if err != nil {
			if errors.Is(err, errEchoMismatch) {
				fc.mismatches.Add(1)
			}
			fc.errs.Add(1)
			closeConn() // a failed request poisons the connection
			continue
		}
		ks.noteOK()
		fc.ok.Add(1)
		fc.bytes.Add(uint64(rp.payload))
		wallHist.Observe(uint64(time.Since(reqStart).Nanoseconds()))
	}
}

// payloadByte generates the deterministic payload pattern: a function
// of client, request and offset, so the echo check detects
// cross-connection mixups, not just corruption.
func payloadByte(ci, ri, i int) byte {
	return byte(i*131 + ci*7 + ri*13 + 0x2B)
}

// echoOnce writes the request payload and verifies the byte-exact
// echo through redirector and backend.
func echoOnce(conn *issl.Conn, tcb *tcpip.TCB, ci, ri, size int) error {
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = payloadByte(ci, ri, i)
	}
	deadline := time.Now().Add(requestTimeout)
	var write func([]byte) (int, error)
	var read func([]byte) (int, error)
	if conn != nil {
		conn.SetReadDeadline(deadline)
		defer conn.SetReadDeadline(time.Time{})
		write, read = conn.Write, conn.Read
	} else {
		write = tcb.Write
		read = func(b []byte) (int, error) { return tcb.ReadDeadline(b, deadline) }
	}
	if _, err := write(payload); err != nil {
		return err
	}
	got := make([]byte, 0, size)
	buf := make([]byte, 4096)
	for len(got) < size {
		n, err := read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return fmt.Errorf("loadgen: echo read after %d/%d bytes: %w", len(got), size, err)
		}
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("%w for client %d request %d (%d bytes)", errEchoMismatch, ci, ri, size)
	}
	return nil
}

// errEchoMismatch marks a byte-exactness violation: data came back,
// but wrong. Distinguished from transport failures because it is never
// retried and the chaos gates assert it stays at zero.
var errEchoMismatch = errors.New("loadgen: echo mismatch")
