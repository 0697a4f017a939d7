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

// Config parameterizes a fleet. Zero values get the noted defaults.
type Config struct {
	// Nodes is the instance count (default 3, the smallest fleet where
	// a kill leaves a majority).
	Nodes int
	// ListenPort is the balancer's public port (default 4443); NodePort
	// and HealthPort are each instance's service and probe ports
	// (defaults 4443 and 4453 — every node has its own stack, so they
	// may coincide across nodes).
	ListenPort uint16
	NodePort   uint16
	HealthPort uint16
	// BalancerIP and NodeIPBase lay the fleet out on the fabric: the
	// balancer at BalancerIP (default 10.0.0.2, the address the
	// single-redirector world used, so clients need not care which they
	// are talking to) and node i at 10.0.0.(NodeIPBase+i) (default
	// base 20).
	BalancerIP tcpip.Addr
	NodeIPBase byte
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
	// ForwardTimeout bounds one balancer-to-node connect before failing
	// over to the next candidate (default 1s).
	ForwardTimeout time.Duration
	// Health shapes the balancer's active probing.
	Health HealthConfig
	// RandSeed diversifies per-instance session crypto.
	RandSeed uint64
	// Metrics receives the balancer counters (default private); each
	// instance gets its own private registry (see Cluster.NodeRegistry)
	// so reports can break SLOs down per instance.
	Metrics *telemetry.Registry
	// Trace and Log are shared across the fleet. Optional.
	Trace *telemetry.Trace
	Log   issl.Logger
}

func (c Config) withDefaults() (Config, error) {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.ListenPort == 0 {
		c.ListenPort = 4443
	}
	if c.NodePort == 0 {
		c.NodePort = 4443
	}
	if c.HealthPort == 0 {
		c.HealthPort = c.NodePort + 10
	}
	if c.BalancerIP == (tcpip.Addr{}) {
		c.BalancerIP = tcpip.IP4(10, 0, 0, 2)
	}
	if c.NodeIPBase == 0 {
		c.NodeIPBase = 20
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
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = time.Second
	}
	c.Health = c.Health.withDefaults()
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
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
			Addr:     tcpip.IP4(10, 0, 0, cfg.NodeIPBase+byte(i)),
			Registry: telemetry.NewRegistry(),
		}
		c.nodes = append(c.nodes, node)
		addrs[i] = node.Addr
		if err := c.startNode(node); err != nil {
			return fail(err)
		}
	}
	c.balStack, err = tcpip.NewStack(c.hub, cfg.BalancerIP)
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
		ListenPort:  c.cfg.NodePort,
		Target:      c.cfg.Target,
		TargetPort:  c.cfg.TargetPort,
		Secure:      c.cfg.Secure,
		ServerKey:   c.cfg.ServerKey,
		MaxInflight: c.cfg.MaxInflight,
		SignWorkers: c.cfg.SignWorkers,
		RandSeed:    c.cfg.RandSeed ^ (uint64(node.Index+1) * 0x9E3779B97F4A7C15),
		Metrics:     node.Registry,
		Trace:       c.cfg.Trace,
		Log:         c.cfg.Log,
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
	health, err := stack.Listen(c.cfg.HealthPort, 8)
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
func (c *Cluster) Addr() (tcpip.Addr, uint16) { return c.cfg.BalancerIP, c.cfg.ListenPort }

// Nodes returns the fleet size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// NodeRegistry returns instance i's private telemetry registry — the
// per-instance SLO breakdown reads these.
func (c *Cluster) NodeRegistry(i int) *telemetry.Registry { return c.nodes[i].Registry }

// KillNode is the chaos primitive: instance i dies abruptly — live
// connections reset, session cache gone, stack off the fabric — as if
// the box lost power. Idempotent. The balancer's probes notice on
// their own clock; nothing tells it.
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
	health.Close()
	srv.Shutdown(0) // abort in-flight: a power cut drains nothing
	stack.Close()
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
