package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/crypto/rsa"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/redirector"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// The fleet's layout on the fabric. The balancer listens on listenPort
// at balancerIP, the address the single-redirector world used, so
// clients need not care which they are talking to. Node i is at
// 10.0.0.(nodeIPBase+i) and serves on nodePort, with its health
// endpoint on healthPort; every node has its own stack, so the ports
// may coincide across nodes.
const (
	listenPort = 4443
	nodePort   = 4443
	healthPort = nodePort + 10
	nodeIPBase = 20
)

var balancerIP = tcpip.IP4(10, 0, 0, 2)

// forwardTimeout bounds one balancer-to-node connect before the
// balancer fails over to the next candidate. A variable only so tests
// can shorten it in place.
var forwardTimeout = time.Second

// Config parameterizes a fleet. Zero values get the noted defaults.
type Config struct {
	// Nodes is the instance count (default 3, the smallest fleet where
	// a kill leaves a majority).
	Nodes int
	// Target and TargetPort locate the plaintext backend every
	// instance forwards to.
	Target     tcpip.Addr
	TargetPort uint16
	// Secure enables the issl layer on every instance; ServerKey is
	// the fleet-shared RSA key (required when Secure).
	Secure    bool
	ServerKey *rsa.PrivateKey
	// TicketMaterial is the cluster-shared ticket key material: every
	// instance derives the same sealing keys from it, which is what
	// lets any instance resume any client. Required when Secure.
	TicketMaterial []byte
	// SessionCacheSize is each instance's private cache (default 64).
	// The cache is warm-path only; cross-instance resumption rides the
	// tickets.
	SessionCacheSize int
	// MaxInflight is each instance's admission bound (0 = unbounded).
	MaxInflight int
	// SignWorkers sizes each instance's RSA sign/decrypt worker pool
	// (see redirector.Config.SignWorkers). 0 runs key ops inline.
	SignWorkers int
	// Policy orders the balancer's candidates per connection (default
	// consistent hash).
	Policy Policy
	// RandSeed diversifies per-instance session crypto.
	RandSeed uint64
	// Trace is shared across the fleet. Optional.
	Trace *telemetry.Trace
}

func (c Config) withDefaults() (Config, error) {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Secure && c.ServerKey == nil {
		return c, fmt.Errorf("cluster: secure fleet needs ServerKey")
	}
	if c.Secure && len(c.TicketMaterial) == 0 {
		return c, fmt.Errorf("cluster: secure fleet needs TicketMaterial (shared ticket key)")
	}
	if c.SessionCacheSize <= 0 {
		c.SessionCacheSize = 64
	}
	if c.Policy == nil {
		c.Policy = NewConsistentHash(0)
	}
	return c, nil
}

// Node is one redirector instance: its own stack (own IP), its own
// redirector, its own health endpoint, its own telemetry registry.
// Only the ticket key material is shared with its siblings.
type Node struct {
	Index    int
	Addr     tcpip.Addr
	Registry *telemetry.Registry

	mu      sync.Mutex
	stack   *tcpip.Stack
	srv     *redirector.UnixServer
	health  *tcpip.Listener
	stopped bool
	hwg     sync.WaitGroup
}

// Cluster is the running fleet plus its balancer.
type Cluster struct {
	cfg      Config
	hub      *netsim.Hub
	ownHub   bool
	balStack *tcpip.Stack
	balancer *Balancer
	nodes    []*Node
}

// New brings up the fleet on hub (nil creates a private hub the
// Cluster owns and closes). On return every instance is serving and
// the balancer is probing.
func New(hub *netsim.Hub, cfg Config) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, hub: hub}
	if c.hub == nil {
		c.hub = netsim.NewHub()
		c.ownHub = true
	}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}
	addrs := make([]tcpip.Addr, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		node := &Node{
			Index:    i,
			Addr:     tcpip.IP4(10, 0, 0, nodeIPBase+byte(i)),
			Registry: telemetry.NewRegistry(),
		}
		c.nodes = append(c.nodes, node)
		addrs[i] = node.Addr
		if err := c.startNode(node); err != nil {
			return fail(err)
		}
	}
	c.balStack, err = tcpip.NewStack(c.hub, balancerIP)
	if err != nil {
		return fail(err)
	}
	c.balancer, err = newBalancer(c.balStack, addrs, cfg)
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// startNode builds the instance's stack, redirector and health
// endpoint. Called under no lock at construction and under node.mu's
// conventions at restart (the node is stopped then).
func (c *Cluster) startNode(node *Node) error {
	stack, err := tcpip.NewStack(c.hub, node.Addr)
	if err != nil {
		return err
	}
	rcfg := redirector.Config{
		ListenPort:  nodePort,
		Target:      c.cfg.Target,
		TargetPort:  c.cfg.TargetPort,
		Secure:      c.cfg.Secure,
		ServerKey:   c.cfg.ServerKey,
		MaxInflight: c.cfg.MaxInflight,
		SignWorkers: c.cfg.SignWorkers,
		RandSeed:    c.cfg.RandSeed ^ (uint64(node.Index+1) * 0x9E3779B97F4A7C15),
		Metrics:     node.Registry,
		Trace:       c.cfg.Trace,
	}
	if c.cfg.Secure {
		// Fresh cache (a restarted node lost its RAM); same ticket keys
		// (the material is the fleet's `protected` storage).
		rcfg.SessionCache = issl.NewSessionCache(c.cfg.SessionCacheSize)
		tk, err := issl.NewTicketKeyStore(c.cfg.TicketMaterial, 0)
		if err != nil {
			stack.Close()
			return err
		}
		rcfg.TicketKeys = tk
	}
	srv, err := redirector.NewUnixServer(stack, rcfg)
	if err != nil {
		stack.Close()
		return err
	}
	health, err := stack.Listen(healthPort, 8)
	if err != nil {
		srv.Close()
		stack.Close()
		return err
	}
	node.mu.Lock()
	node.stack, node.srv, node.health = stack, srv, health
	node.stopped = false
	node.mu.Unlock()
	go srv.Serve()
	node.hwg.Add(1)
	go func() {
		defer node.hwg.Done()
		// The health endpoint is aliveness itself: accept, close. It
		// dies with the stack, which is exactly the signal the probes
		// want.
		for {
			tcb, err := health.Accept(0)
			if err != nil {
				return
			}
			tcb.Close()
		}
	}()
	return nil
}

// Balancer exposes the L4 node (stats, health view).
func (c *Cluster) Balancer() *Balancer { return c.balancer }

// Addr returns the public address clients dial.
func (c *Cluster) Addr() (tcpip.Addr, uint16) { return balancerIP, listenPort }

// Nodes returns the fleet size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// NodeRegistry returns instance i's private telemetry registry — the
// per-instance SLO breakdown reads these.
func (c *Cluster) NodeRegistry(i int) *telemetry.Registry { return c.nodes[i].Registry }

// KillNode is the chaos primitive: instance i dies abruptly, as if the
// box lost power. Its stack leaves the fabric first, so from then on
// nothing leaves the node: live connections end without a RST or FIN
// (their peers find out by timing out), a SYN gets neither a SYN-ACK
// nor a RST, and the session cache is gone. Only then are the
// redirector and the health endpoint torn down, their connections
// already aborted under them. Idempotent. The balancer's probes notice
// on their own clock; nothing tells it.
func (c *Cluster) KillNode(i int) {
	node := c.nodes[i]
	node.mu.Lock()
	if node.stopped {
		node.mu.Unlock()
		return
	}
	node.stopped = true
	stack, srv, health := node.stack, node.srv, node.health
	node.mu.Unlock()
	stack.Halt()
	srv.Close()
	health.Close()
	node.hwg.Wait()
}

// RestartNode brings a killed instance back: a fresh stack
// at the same address, empty session cache, ticket keys rebuilt from
// the shared material. The balancer reinstates it only after its
// probes pass and the backoff elapses.
func (c *Cluster) RestartNode(i int) error {
	node := c.nodes[i]
	node.mu.Lock()
	if !node.stopped {
		node.mu.Unlock()
		return fmt.Errorf("cluster: node %d is still running", i)
	}
	node.mu.Unlock()
	return c.startNode(node)
}

// Close tears the fleet down: balancer first (no new forwards), then
// each instance.
func (c *Cluster) Close() {
	if c.balancer != nil {
		c.balancer.Close()
	}
	if c.balStack != nil {
		c.balStack.Close()
	}
	for i := range c.nodes {
		c.KillNode(i)
	}
	if c.ownHub {
		c.hub.Close()
	}
}
