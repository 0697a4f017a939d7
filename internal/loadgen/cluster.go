package loadgen

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/netsim"
	"repro/internal/tcpip"
)

// Cluster mode: the same client fleet, but the service side is N
// redirector instances behind the L4 balancer at the address the
// single redirector used to hold — plus, optionally, the node-kill
// chaos plan (KillAfter/RestartAfter) running against it mid-load.
// Sealed tickets (cluster-shared key material derived from the run
// seed) are what let a client bounced off its instance resume on a
// sibling instead of paying a full handshake.

// runRealCluster is runReal's fleet-mode tail: hub, cli and back are
// already up (owned and closed by the caller); the backend echo
// service is listening. The balancer holds the single redirector's
// address and port (10.0.0.2:redirectorPort), so the fleet dials it
// unchanged.
func runRealCluster(cfg *Config, p *plan, hub *netsim.Hub, cli, back *tcpip.Stack) (*MeasuredReport, error) {
	ccfg := cluster.Config{
		Nodes:            cfg.Instances,
		Target:           back.Addr(),
		TargetPort:       backendPort,
		Secure:           !cfg.Plain,
		TicketMaterial:   []byte(fmt.Sprintf("loadgen ticket material %d", cfg.Seed)),
		SessionCacheSize: cfg.CacheSessions,
		MaxInflight:      cfg.MaxInflight,
		SignWorkers:      cfg.SignWorkers,
		Policy:           cluster.PolicyByName(cfg.Policy),
		RandSeed:         cfg.Seed ^ 0xC105FEED,
	}
	if !cfg.Plain {
		key, err := rsa.GenerateKey(prng.NewXorshift(cfg.Seed^0x4B455947454E), cfg.KeyBits)
		if err != nil {
			return nil, err
		}
		ccfg.ServerKey = key
	}
	cl, err := cluster.New(hub, ccfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	ks := &killState{}
	if cfg.KillAfter > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-stop:
				return
			case <-time.After(cfg.KillAfter):
			}
			cl.KillNode(cfg.KillNode)
			ks.killedAt.Store(time.Now().UnixNano())
			if cfg.RestartAfter <= 0 {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(cfg.RestartAfter):
			}
			// Ignore a restart error: the run may already be tearing
			// down, and a kill-only report is still valid.
			_ = cl.RestartNode(cfg.KillNode)
		}()
	}

	fc, wall, wallHist := runFleet(cfg, cli, p, ks)

	// Per-instance breakdown, then fleet sums from it — every server
	// counter lives in an instance's private registry.
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
	for i := 0; i < cl.Nodes(); i++ {
		reg := cl.NodeRegistry(i)
		c := func(name string) uint64 { return reg.Counter(name).Value() }
		inst := InstanceReport{
			Node:              i,
			Up:                cl.Balancer().NodeUp(i),
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
		m.PerInstance = append(m.PerInstance, inst)
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

	bs := cl.Balancer().Stats()
	m.Refused += bs.Refused.Value() // fleet-wide refusals include "no node up"
	cr := &ClusterReport{
		Instances:  cfg.Instances,
		Policy:     ccfg.Policy.Name(),
		Balanced:   bs.Accepted.Value(),
		Refused:    bs.Refused.Value(),
		Failovers:  bs.Failovers.Value(),
		NodeDowns:  bs.NodeDowns.Value(),
		NodeUps:    bs.NodeUps.Value(),
		NodesUpEnd: cl.Balancer().UpCount(),
	}
	if cfg.KillAfter > 0 {
		cr.KilledNode = cfg.KillNode
		cr.KillAfterNs = uint64(cfg.KillAfter.Nanoseconds())
		cr.RestartAfterNs = uint64(cfg.RestartAfter.Nanoseconds())
		cr.RecoveryNs = ks.recoveryNs()
	} else {
		cr.KilledNode = -1
	}
	m.Cluster = cr

	if wall > 0 {
		m.RPS = float64(m.Requests) / wall.Seconds()
		m.HandshakesPerSec = float64(m.HandshakesFull+m.HandshakesResumed) / wall.Seconds()
	}
	pct := percentilesFrom(wallHist)
	m.WallLatency = &pct
	return m, nil
}
