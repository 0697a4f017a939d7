package loadgen

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/crypto/rsa"
	"repro/internal/netsim"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
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
func runRealCluster(cfg *Config, p *plan, hub *netsim.Hub, cli, back *tcpip.Stack, key *rsa.PrivateKey) (*MeasuredReport, error) {
	cl, err := cluster.New(hub, cluster.Config{
		Nodes:            cfg.Instances,
		Target:           back.Addr(),
		TargetPort:       backendPort,
		Secure:           true,
		TicketMaterial:   []byte(fmt.Sprintf("loadgen ticket material %d", cfg.Seed)),
		SessionCacheSize: cfg.cacheSessions,
		MaxInflight:      cfg.MaxInflight,
		SignWorkers:      cfg.SignWorkers,
		ServerKey:        key,
		RandSeed:         cfg.Seed ^ 0xC105FEED,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	ks := &killState{}
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaosStart := time.Now().UnixNano()
	if cfg.KillAfter > 0 {
		chaos.Add(1)
		go func() {
			defer chaos.Done()
			select {
			case <-stop:
				return
			case <-time.After(cfg.KillAfter):
			}
			// Stamp the kill as it is issued: KillNode waits for the
			// node's handlers, and a request finishing meanwhile ran
			// against a node already going down.
			ks.killedAt.Store(time.Now().UnixNano())
			cl.KillNode(cfg.KillNode)
			if cfg.RestartAfter <= 0 {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(cfg.RestartAfter):
			}
			// A restart error leaves restartedAt unset: the run may
			// already be tearing down, and a kill-only report is still
			// valid.
			if cl.RestartNode(cfg.KillNode) == nil {
				ks.restartedAt.Store(time.Now().UnixNano())
			}
		}()
	}

	fc, wall, wallHist := runFleet(cfg, cli, p, ks)
	// Stop the chaos plan before reading its timeline: a kill whose
	// timer outlasts the fleet never runs and is not reported.
	close(stop)
	chaos.Wait()

	regs := make([]*telemetry.Registry, cl.Nodes())
	for i := range regs {
		regs[i] = cl.NodeRegistry(i)
	}
	m, rows := measure(fc, wall, wallHist, regs)
	for i := range rows {
		rows[i].Up = cl.Balancer().NodeUp(i)
	}
	m.PerInstance = rows

	bs := cl.Balancer().Stats()
	m.Refused += bs.Refused.Value() // fleet-wide refusals include "no node up"
	cr := &ClusterReport{
		Instances:  cfg.Instances,
		Balanced:   bs.Accepted.Value(),
		Refused:    bs.Refused.Value(),
		Failovers:  bs.Failovers.Value(),
		NodeDowns:  bs.NodeDowns.Value(),
		NodeUps:    bs.NodeUps.Value(),
		NodesUpEnd: cl.Balancer().UpCount(),
		KilledNode: -1,
	}
	if ka := ks.killedAt.Load(); ka != 0 {
		cr.KilledNode = cfg.KillNode
		cr.KillAfterNs = uint64(ka - chaosStart)
		if ra := ks.restartedAt.Load(); ra != 0 {
			cr.RestartAfterNs = uint64(ra - ka)
		}
		cr.RecoveryNs = ks.recoveryNs()
	}
	m.Cluster = cr
	return m, nil
}
