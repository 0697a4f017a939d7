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

// The balancer's active probing. Each node is probed every
// probeInterval by a round of probeDials simultaneous connects, each
// bounded by probeTimeout; the round fails only if every connect does.
// failThreshold consecutive failed rounds mark a node down and drain it
// from the rotation; riseThreshold consecutive successes make a down node
// eligible again, but only once reinstateBackoff has passed since it
// went down, however quickly its probes recover — a flapping node must
// not churn the rotation. The durations are variables only so tests
// can shorten them in place.
var (
	probeInterval    = 100 * time.Millisecond
	probeTimeout     = probeInterval
	reinstateBackoff = 5 * probeInterval
)

const (
	failThreshold = 2
	riseThreshold = 2
	// probeDials is three connects per round because one cannot
	// outlast a lost segment: tcpip's initial RTO (200 ms) is longer
	// than probeTimeout, so a connect whose SYN or SYN-ACK is lost
	// fails unretransmitted. A longer probeTimeout, or a retry later
	// in the round, would let a node restarted soon after a kill hide
	// the kill.
	probeDials = 3
)

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
	forwarded *telemetry.Counter
}

// Balancer is the L4 node: it accepts on listenPort and relays each
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

	connMu sync.Mutex
	conns  map[*tcpip.TCB]struct{} // both ends of every live forward
	closed bool                    // Close has aborted conns; track refuses
}

// newBalancer starts the balancer on its stack, probing and forwarding
// to the given node addresses (index in this slice is the node index
// everywhere: policy order, counters, KillNode). cfg has its defaults
// applied (Config.withDefaults).
func newBalancer(stack *tcpip.Stack, nodeAddrs []tcpip.Addr, cfg Config) (*Balancer, error) {
	if len(nodeAddrs) == 0 {
		return nil, fmt.Errorf("cluster: balancer needs at least one node")
	}
	reg := telemetry.NewRegistry()
	lst, err := stack.Listen(listenPort, 32)
	if err != nil {
		return nil, err
	}
	b := &Balancer{
		cfg:   cfg,
		stack: stack,
		lst:   lst,
		stop:  make(chan struct{}),
		conns: make(map[*tcpip.TCB]struct{}),
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

// Close stops accepting and probing, aborts every forwarded connection
// and waits for the forwarders. Aborting is what lets a relay whose
// peer vanished without FIN or RST end: its halves block in reads with
// no deadline, and nothing else would wake them.
func (b *Balancer) Close() {
	b.once.Do(func() {
		close(b.stop)
		b.lst.Close()
		b.connMu.Lock()
		b.closed = true
		for tcb := range b.conns {
			tcb.Abort()
		}
		b.connMu.Unlock()
	})
	b.wg.Wait()
}

// track records tcb as one end of a live forward, for Close to abort.
// Once Close has run it aborts tcb instead and reports false.
func (b *Balancer) track(tcb *tcpip.TCB) bool {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if b.closed {
		tcb.Abort()
		return false
	}
	b.conns[tcb] = struct{}{}
	return true
}

// dropForwards aborts every forward to addr, a node just marked down,
// so the relays' clients see the failure now and retry elsewhere. A
// dead node answers nothing: a relay waiting on its reply would
// otherwise sit until the client's own timeout.
func (b *Balancer) dropForwards(addr tcpip.Addr) {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	for tcb := range b.conns {
		if a, _ := tcb.RemoteAddr(); a == addr {
			tcb.Abort()
		}
	}
}

func (b *Balancer) untrack(tcb *tcpip.TCB) {
	b.connMu.Lock()
	delete(b.conns, tcb)
	b.connMu.Unlock()
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
	if !b.track(client) {
		return
	}
	defer b.untrack(client)
	key := clientKey(client)
	tried := 0
	for _, idx := range b.cfg.Policy.Order(key, len(b.nodes)) {
		n := b.nodes[idx]
		if !n.up.Load() {
			continue
		}
		backend, err := b.stack.Connect(n.addr, nodePort, forwardTimeout)
		if err != nil {
			// The health checker will catch a dead node on its own clock;
			// this connection cannot wait for it.
			tried++
			b.stats.Failovers.Inc()
			b.cfg.Trace.Emit("cluster", "forward.failover", "node", idx, "err", err.Error())
			continue
		}
		if !b.track(backend) {
			return
		}
		defer b.untrack(backend)
		n.forwarded.Inc()
		b.stats.Accepted.Inc()
		b.cfg.Trace.Emit("cluster", "forward.accept", "node", idx)
		redirector.Relay(client, backend, b.stats.BytesIn, b.stats.BytesOut, nil)
		return
	}
	b.stats.Refused.Inc()
	b.cfg.Trace.Emit("cluster", "forward.refused", "tried", tried)
	client.Close()
}

// probeLoop is one node's health checker: a probe round against the
// node's health port per interval. failThreshold consecutive failed
// rounds drain the node from rotation; reinstatement needs
// riseThreshold successful rounds AND reinstateBackoff elapsed since
// the node went down.
func (b *Balancer) probeLoop(n *nodeEntry) {
	defer b.wg.Done()
	fails, rises := 0, 0
	var downSince time.Time
	for {
		select {
		case <-b.stop:
			return
		case <-time.After(probeInterval):
		}
		if b.probe(n) {
			fails = 0
			if !n.up.Load() {
				rises++
				if down := time.Since(downSince); rises >= riseThreshold && down >= reinstateBackoff {
					n.up.Store(true)
					b.stats.NodeUps.Inc()
					b.stats.NodesUp.Add(1)
					b.cfg.Trace.Emit("cluster", "node.up", "node", n.index, "down_ns", int64(down))
				}
			}
			continue
		}
		rises = 0
		fails++
		if n.up.Load() && fails >= failThreshold {
			n.up.Store(false)
			downSince = time.Now()
			b.stats.NodeDowns.Inc()
			b.stats.NodesUp.Add(-1)
			b.cfg.Trace.Emit("cluster", "node.down", "node", n.index, "fails", fails)
			b.dropForwards(n.addr)
		}
	}
}

// probe runs one round against n: probeDials connects to its health
// port at once, each bounded by probeTimeout. It returns true at the
// first that connects and false once all have failed, so only a node
// that answers none of them fails the round. A connect still running
// when it returns ends by its timeout; Close waits for it.
func (b *Balancer) probe(n *nodeEntry) bool {
	ok := make(chan bool, probeDials)
	for range probeDials {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			tcb, err := b.stack.Connect(n.addr, healthPort, probeTimeout)
			if err == nil {
				tcb.Close()
			}
			ok <- err == nil
		}()
	}
	for range probeDials {
		if <-ok {
			return true
		}
	}
	return false
}
