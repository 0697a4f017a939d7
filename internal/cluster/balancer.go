package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/redirector"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// HealthConfig shapes the balancer's active probing. Zero values get
// the noted defaults.
type HealthConfig struct {
	// ProbeInterval is the per-node probe period (default 100ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one TCP probe (default ProbeInterval).
	ProbeTimeout time.Duration
	// FailThreshold is consecutive probe failures before a node is
	// marked down and drained out of the rotation (default 2).
	FailThreshold int
	// RiseThreshold is consecutive probe successes before a down node
	// is eligible again (default 2).
	RiseThreshold int
	// ReinstateBackoff is the minimum time a node stays out after
	// going down, however quickly its probes recover — a flapping node
	// must not churn the rotation (default 5*ProbeInterval).
	ReinstateBackoff time.Duration
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.ProbeInterval <= 0 {
		h.ProbeInterval = 100 * time.Millisecond
	}
	if h.ProbeTimeout <= 0 {
		h.ProbeTimeout = h.ProbeInterval
	}
	if h.FailThreshold <= 0 {
		h.FailThreshold = 2
	}
	if h.RiseThreshold <= 0 {
		h.RiseThreshold = 2
	}
	if h.ReinstateBackoff <= 0 {
		h.ReinstateBackoff = 5 * h.ProbeInterval
	}
	return h
}

// BalancerStats are the balancer's live counters (nil-safe handles
// into the registry; read with Value()).
type BalancerStats struct {
	Accepted  *telemetry.Counter // client connections forwarded to a node
	Refused   *telemetry.Counter // client connections no node would take
	Failovers *telemetry.Counter // candidates skipped after a connect failure
	NodeDowns *telemetry.Counter // up -> down transitions
	NodeUps   *telemetry.Counter // reinstatements after backoff
	NodesUp   *telemetry.Gauge   // current up count
	BytesIn   *telemetry.Counter // client -> node bytes
	BytesOut  *telemetry.Counter // node -> client bytes
}

// nodeEntry is the balancer's book on one fleet node.
type nodeEntry struct {
	index     int
	addr      tcpip.Addr
	up        atomic.Bool
	inflight  atomic.Int64
	forwarded *telemetry.Counter
}

// Balancer is the L4 node: it accepts on ListenPort and relays each
// connection byte-for-byte to a fleet node chosen by the policy over
// the currently-up set. It terminates nothing — the issl handshake
// passes through to the node, whose ticket store makes any choice
// valid for a resuming client.
type Balancer struct {
	cfg   Config
	stack *tcpip.Stack
	lst   *tcpip.Listener
	nodes []*nodeEntry
	stats BalancerStats
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// newBalancer starts the balancer on its stack, probing and forwarding
// to the given node addresses (index in this slice is the node index
// everywhere: policy order, counters, KillNode). cfg has its defaults
// applied (Config.withDefaults).
func newBalancer(stack *tcpip.Stack, nodeAddrs []tcpip.Addr, cfg Config) (*Balancer, error) {
	if len(nodeAddrs) == 0 {
		return nil, fmt.Errorf("cluster: balancer needs at least one node")
	}
	reg := cfg.Metrics
	lst, err := stack.Listen(cfg.ListenPort, 32)
	if err != nil {
		return nil, err
	}
	b := &Balancer{
		cfg:   cfg,
		stack: stack,
		lst:   lst,
		stop:  make(chan struct{}),
		stats: BalancerStats{
			Accepted:  reg.Counter("cluster.accepted"),
			Refused:   reg.Counter("cluster.refused"),
			Failovers: reg.Counter("cluster.failovers"),
			NodeDowns: reg.Counter("cluster.node_downs"),
			NodeUps:   reg.Counter("cluster.node_ups"),
			NodesUp:   reg.Gauge("cluster.nodes_up"),
			BytesIn:   reg.Counter("cluster.bytes_in"),
			BytesOut:  reg.Counter("cluster.bytes_out"),
		},
	}
	for i, addr := range nodeAddrs {
		n := &nodeEntry{index: i, addr: addr,
			forwarded: reg.Counter(fmt.Sprintf("cluster.forwarded_node%d", i))}
		n.up.Store(true) // presumed healthy until probes say otherwise
		b.nodes = append(b.nodes, n)
	}
	b.stats.NodesUp.Set(int64(len(b.nodes)))
	b.wg.Add(1 + len(b.nodes))
	go b.acceptLoop()
	for _, n := range b.nodes {
		go b.probeLoop(n)
	}
	return b, nil
}

// Stats exposes the live counters.
func (b *Balancer) Stats() *BalancerStats { return &b.stats }

// NodeUp reports the health checker's current verdict for node i.
func (b *Balancer) NodeUp(i int) bool { return b.nodes[i].up.Load() }

// UpCount returns how many nodes are currently in rotation.
func (b *Balancer) UpCount() int {
	n := 0
	for _, e := range b.nodes {
		if e.up.Load() {
			n++
		}
	}
	return n
}

// WaitNodeState polls until node i's health verdict equals up, or the
// timeout passes; it reports whether the state was reached. Chaos
// harnesses use it to bound "time to detection" assertions.
func (b *Balancer) WaitNodeState(i int, up bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for b.nodes[i].up.Load() != up {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// Close stops accepting and probing and waits for the forwarders.
func (b *Balancer) Close() {
	b.once.Do(func() {
		close(b.stop)
		b.lst.Close()
	})
	b.wg.Wait()
}

func (b *Balancer) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.lst.Accept(0)
		if err != nil {
			return // listener closed
		}
		b.wg.Add(1)
		go func(tcb *tcpip.TCB) {
			defer b.wg.Done()
			b.forward(tcb)
		}(conn)
	}
}

// clientKey identifies the client for sticky policies: source address
// and port, the only L4 identity a spreader has.
func clientKey(tcb *tcpip.TCB) uint64 {
	addr, port := tcb.RemoteAddr()
	return uint64(addr[0])<<40 | uint64(addr[1])<<32 |
		uint64(addr[2])<<24 | uint64(addr[3])<<16 | uint64(port)
}

func (b *Balancer) forward(client *tcpip.TCB) {
	states := make([]NodeState, len(b.nodes))
	for i, n := range b.nodes {
		states[i] = NodeState{Up: n.up.Load(), Inflight: n.inflight.Load()}
	}
	key := clientKey(client)
	tried := 0
	for _, idx := range b.cfg.Policy.Order(key, states) {
		n := b.nodes[idx]
		if !n.up.Load() {
			continue
		}
		backend, err := b.stack.Connect(n.addr, b.cfg.NodePort, b.cfg.ForwardTimeout)
		if err != nil {
			// The health checker will catch a dead node on its own clock;
			// this connection cannot wait for it.
			tried++
			b.stats.Failovers.Inc()
			b.cfg.Trace.Emit("cluster", "forward.failover", "node", idx, "err", err.Error())
			continue
		}
		if tried > 0 && b.cfg.Log != nil {
			b.cfg.Log.Printf("cluster: client %016x failed over to node %d", key, idx)
		}
		n.inflight.Add(1)
		n.forwarded.Inc()
		b.stats.Accepted.Inc()
		b.cfg.Trace.Emit("cluster", "forward.accept", "node", idx)
		redirector.Relay(client, backend, b.stats.BytesIn, b.stats.BytesOut, nil)
		n.inflight.Add(-1)
		return
	}
	b.stats.Refused.Inc()
	b.cfg.Trace.Emit("cluster", "forward.refused", "tried", tried)
	client.Close()
}

// probeLoop is one node's health checker: a TCP connect to the node's
// health port per interval. FailThreshold consecutive failures drain
// the node from rotation; reinstatement needs RiseThreshold successes
// AND ReinstateBackoff elapsed since the node went down.
func (b *Balancer) probeLoop(n *nodeEntry) {
	defer b.wg.Done()
	h := b.cfg.Health
	fails, rises := 0, 0
	var downSince time.Time
	for {
		select {
		case <-b.stop:
			return
		case <-time.After(h.ProbeInterval):
		}
		tcb, err := b.stack.Connect(n.addr, b.cfg.HealthPort, h.ProbeTimeout)
		if err == nil {
			tcb.Close()
			fails = 0
			if !n.up.Load() {
				rises++
				if rises >= h.RiseThreshold && time.Since(downSince) >= h.ReinstateBackoff {
					n.up.Store(true)
					b.stats.NodeUps.Inc()
					b.stats.NodesUp.Add(1)
					b.cfg.Trace.Emit("cluster", "node.up", "node", n.index)
					if b.cfg.Log != nil {
						b.cfg.Log.Printf("cluster: node %d reinstated after %v", n.index, time.Since(downSince))
					}
				}
			}
			continue
		}
		rises = 0
		fails++
		if n.up.Load() && fails >= h.FailThreshold {
			n.up.Store(false)
			downSince = time.Now()
			b.stats.NodeDowns.Inc()
			b.stats.NodesUp.Add(-1)
			b.cfg.Trace.Emit("cluster", "node.down", "node", n.index, "fails", fails)
			if b.cfg.Log != nil {
				b.cfg.Log.Printf("cluster: node %d marked down after %d failed probes", n.index, fails)
			}
		}
	}
}
