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
// The workload is a closed loop: Concurrency clients in flight, each
// reconnecting for every request and offering its cached session with
// probability Resume (the Goldberg et al. cache hit rate), with payload
// sizes drawn from a fixed weighted mix.
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
	// Requests is issued per client (default 2), each on a fresh
	// connection: the handshake-bound workload.
	Requests int
	// Concurrency caps simultaneously active clients (default 32): the
	// closed-loop width. Each client issues its next request the moment
	// the previous one completes.
	Concurrency int
	// Resume is the probability a reconnecting client offers its
	// cached session (0, 0.5, 0.95 are the canonical mixes). The first
	// connection of a client is always a full handshake.
	Resume float64
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
	// Faults degrades the wire (e.g. chaos.SoakPlan); nil runs clean.
	Faults *netsim.FaultPlan
	// HubLatency adds one-way frame delay.
	HubLatency time.Duration

	// cacheSessions bounds the server session cache (default
	// 2*Clients; tests raise it so no session is evicted).
	cacheSessions int
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
		// All-fresh, all-at-once: no resumption, the whole fleet in
		// flight simultaneously.
		c.Resume = 0
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
	if c.Concurrency <= 0 {
		c.Concurrency = 32
	}
	if c.Concurrency > c.Clients {
		c.Concurrency = c.Clients
	}
	if c.Resume < 0 || c.Resume > 1 {
		return nil, fmt.Errorf("loadgen: Resume must be in [0,1]")
	}
	if c.cacheSessions <= 0 {
		c.cacheSessions = 2 * c.Clients
	}
	if c.Instances < 0 {
		return nil, fmt.Errorf("loadgen: Instances must be >= 0")
	}
	if c.Instances > 1 && (c.KillNode < 0 || c.KillNode >= c.Instances) {
		return nil, fmt.Errorf("loadgen: KillNode %d out of range for %d instances", c.KillNode, c.Instances)
	}
	if c.RequestRetries < 0 {
		return nil, fmt.Errorf("loadgen: RequestRetries must be >= 0")
	}
	return &c, nil
}

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
		Concurrency: c.Concurrency,
		Resume:      c.Resume,
		MaxInflight: c.MaxInflight,
		Faulty:      c.Faults != nil,
		Stampede:    c.Stampede,
		SignWorkers: c.SignWorkers,
		KeyBits:     c.KeyBits,
	}
	if c.Instances > 1 {
		rep.Instances = c.Instances
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

// killState tracks the node-kill chaos timeline: when the kill and the
// restart landed, and when the fleet first completed a request after
// the kill — the service-level recovery bound the cluster report
// publishes.
type killState struct {
	killedAt    atomic.Int64 // unix ns; 0 = not (yet) killed
	restartedAt atomic.Int64 // unix ns; 0 = not (yet) restarted
	firstOk     atomic.Int64 // unix ns of first success after the kill
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

// runReal executes the plan against the live vertical: hub, client
// and backend stacks, a plaintext echo backend, the secure service at
// 10.0.0.2 (one redirector with its session cache and
// admission control, or a fleet behind the balancer), and the client
// fleet.
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
	// The tcp counters of the stacks built here: client, backend and
	// the single redirector's.
	stacks := telemetry.NewRegistry()
	mk := func(last byte) (*tcpip.Stack, error) {
		return tcpip.NewStackWithTelemetry(hub, tcpip.IP4(10, 0, 0, last), stacks, nil)
	}
	cli, err := mk(1)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	back, err := mk(3)
	if err != nil {
		return nil, err
	}
	defer back.Close()

	if err := startBackend(back); err != nil {
		return nil, err
	}
	key, err := rsa.GenerateKey(prng.NewXorshift(cfg.Seed^0x4B455947454E), cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	if cfg.Instances > 1 {
		m, err := runRealCluster(cfg, p, hub, cli, back, key)
		if err == nil {
			m.noteWire(hub, stacks)
		}
		return m, err
	}

	mid, err := mk(2)
	if err != nil {
		return nil, err
	}
	defer mid.Close()
	reg := telemetry.NewRegistry()
	srv, err := redirector.NewUnixServer(mid, redirector.Config{
		ListenPort:   redirectorPort,
		Target:       back.Addr(),
		TargetPort:   backendPort,
		Secure:       true,
		ServerKey:    key,
		MaxInflight:  cfg.MaxInflight,
		SessionCache: issl.NewSessionCache(cfg.cacheSessions),
		SignWorkers:  cfg.SignWorkers,
		RandSeed:     cfg.Seed ^ 0x5EC0DE5EC0DE,
		Metrics:      reg,
	})
	if err != nil {
		return nil, err
	}
	go srv.Serve()
	defer srv.Close()

	fc, wall, wallHist := runFleet(cfg, cli, p, nil)
	m, _ := measure(fc, wall, wallHist, []*telemetry.Registry{reg})
	m.noteWire(hub, stacks)
	return m, nil
}

// noteWire records what the wire did to the run: the frames the hub's
// fault plan dropped and corrupted, and the segments retransmitted by
// the stacks whose counters live on stacks.
func (m *MeasuredReport) noteWire(hub *netsim.Hub, stacks *telemetry.Registry) {
	fs := hub.FaultStats()
	m.WireLost = fs.LostGood + fs.LostBurst
	m.WireCorrupted = fs.Corrupted
	m.TCPRetransmits = stacks.Counter("tcp.retransmits").Value()
}

// measure builds the measured section for either service shape: the
// client fleet's counters, the server counters read from regs (the
// single redirector's registry, or one per fleet instance) and summed,
// and the wall-clock rates and latency tail. It also returns one row
// per registry; only a fleet reports them.
func measure(fc *fleetCounters, wall time.Duration, wallHist *telemetry.Histogram, regs []*telemetry.Registry) (*MeasuredReport, []InstanceReport) {
	m := &MeasuredReport{
		DurationNs:      uint64(wall.Nanoseconds()),
		Requests:        fc.ok.Load(),
		Errors:          fc.errs.Load(),
		EchoMismatches:  fc.mismatches.Load(),
		Retries:         fc.retries.Load(),
		ResumeFallbacks: fc.resumeFallbacks.Load(),
		BytesEchoed:     fc.bytes.Load(),
		DialAttempts:    fc.dialAttempts.Load(),
		DialFailures:    fc.dialFailures.Load(),
	}
	rows := make([]InstanceReport, len(regs))
	for i, reg := range regs {
		c := func(name string) uint64 { return reg.Counter(name).Value() }
		inst := InstanceReport{
			Node:              i,
			Accepted:          c("redirector.accepted"),
			Refused:           c("redirector.refused"),
			AdmissionRefused:  c("redirector.refused_admission"),
			HandshakesFull:    c("issl.handshakes_full"),
			HandshakesResumed: c("issl.handshakes_resumed"),
			HandshakesFailed:  c("issl.handshakes_failed"),
			TicketsIssued:     c("issl.tickets_issued"),
			TicketsResumed:    c("issl.tickets_resumed"),
			TicketsRejected:   c("issl.tickets_rejected"),
			BytesForward:      c("redirector.bytes_forward"),
			BytesBackward:     c("redirector.bytes_backward"),
		}
		rows[i] = inst
		m.HandshakesFull += inst.HandshakesFull
		m.HandshakesResumed += inst.HandshakesResumed
		m.HandshakesFailed += inst.HandshakesFailed
		m.Accepted += inst.Accepted
		m.Refused += inst.Refused
		m.AdmissionRefused += inst.AdmissionRefused
		m.TicketsIssued += inst.TicketsIssued
		m.TicketsResumed += inst.TicketsResumed
		m.TicketsRejected += inst.TicketsRejected
		m.SignPoolOps += c("issl.signpool_ops")
		m.SignPoolQueueFull += c("issl.signpool_queue_full")
	}
	if wall > 0 {
		m.RPS = float64(m.Requests) / wall.Seconds()
		m.HandshakesPerSec = float64(m.HandshakesFull+m.HandshakesResumed) / wall.Seconds()
	}
	pct := percentilesFrom(wallHist)
	m.WallLatency = &pct
	return m, rows
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
			runClient(cfg, cli, &p.clients[ci], ci, sem, &fc, &wallHist, ks)
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

// runClient executes one client's planned request sequence, each
// request on a fresh connection.
func runClient(cfg *Config, stack *tcpip.Stack, cp *clientPlan, ci int,
	sem chan struct{}, fc *fleetCounters,
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

	for ri := range cp.reqs {
		rp := &cp.reqs[ri]

		attempt := func(first bool) error {
			if rp.forget && first {
				d.ForgetSession()
			}
			before := d.Stats()
			conn, tr, err := d.DialWithRetry()
			after := d.Stats()
			fc.dialAttempts.Add(after.Attempts - before.Attempts)
			if err != nil {
				fc.dialFailures.Add(1)
				return err
			}
			defer tr.Close()
			defer conn.Close()
			fc.fullHandshakes.Add(after.FullHandshakes - before.FullHandshakes)
			fc.resumptions.Add(after.Resumptions - before.Resumptions)
			fc.resumeFallbacks.Add(after.ResumeFallbacks - before.ResumeFallbacks)
			return echoOnce(conn, ci, ri, rp.payload)
		}

		sem <- struct{}{} // closed-loop width
		reqStart := time.Now()
		err := attempt(true)
		// A well-behaved client rides out a dying connection (a killed
		// node, a mid-transfer abort) by retrying on a fresh one — but
		// an echo MISMATCH is corruption, counted and never retried:
		// retrying it away would hide exactly the defect the byte-exact
		// check exists to catch.
		for try := 0; err != nil && !errors.Is(err, errEchoMismatch) && try < cfg.RequestRetries; try++ {
			fc.retries.Add(1)
			err = attempt(false)
		}
		<-sem

		if err != nil {
			if errors.Is(err, errEchoMismatch) {
				fc.mismatches.Add(1)
			}
			fc.errs.Add(1)
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
func echoOnce(conn *issl.Conn, ci, ri, size int) error {
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = payloadByte(ci, ri, i)
	}
	conn.SetReadDeadline(time.Now().Add(requestTimeout))
	if _, err := conn.Write(payload); err != nil {
		return err
	}
	got := make([]byte, 0, size)
	buf := make([]byte, 4096)
	for len(got) < size {
		n, err := conn.Read(buf)
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
