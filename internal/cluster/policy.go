// Package cluster runs the redirector as a fleet: N instances on one
// netsim fabric behind an L4 balancer node, with active health checks,
// automatic failover and backoff-gated reinstatement. It is the
// deployment shape the sealed-ticket work in internal/issl exists for:
// because any instance can open any client's ticket, the balancer is
// free to move clients between instances — and a killed instance
// strands nobody, which the chaos soak asserts.
//
// The paper's service was one box; a fleet of them behind a dumb L4
// spreader is the obvious scale-out, and the interesting part is
// everything that must NOT live on a single node for it to work: the
// session state (moved into sealed tickets), the health view (probed
// actively, not assumed), and the routing decision (a policy over live
// nodes only).
package cluster

import (
	"sort"
	"sync"
)

// Policy orders the fleet for one arriving connection. The balancer
// walks the order, skips the nodes its health checker holds down, and
// forwards to the first that accepts, failing over down the list — so
// a policy expresses preference, not a hard pick, and never sees node
// health.
type Policy interface {
	// Order returns every index of an n-node fleet, most preferred
	// first. key identifies the client (address and port), so a policy
	// can be sticky.
	Order(key uint64, n int) []int
}

// fnv64a is FNV-1a, the balancer's non-cryptographic hash. (The repo's
// own kernels are for the crypto path; routing just needs spread.)
func fnv64a(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func hashU64(v uint64) uint64 {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return fnv64a(b[:])
}

// --- consistent hash -------------------------------------------------------

// ConsistentHash places VNodes virtual points per node on a hash ring
// and routes a client key to the first point at or after its hash,
// walking onward for failover candidates. The property that matters
// for a fleet: removing one node only remaps the keys that node owned —
// every other client keeps its instance (and its warm session cache),
// which the stability test pins down.
type ConsistentHash struct {
	vnodes int

	mu   sync.Mutex
	n    int // fleet size the cached ring was built for
	ring []ringPoint
}

type ringPoint struct {
	hash uint64
	node int
}

// NewConsistentHash builds the policy with vnodes virtual points per
// node (<=0 gets 64, plenty of spread for single-digit fleets).
func NewConsistentHash(vnodes int) *ConsistentHash {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &ConsistentHash{vnodes: vnodes}
}

func (c *ConsistentHash) ringFor(n int) []ringPoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == n {
		return c.ring
	}
	ring := make([]ringPoint, 0, n*c.vnodes)
	for node := 0; node < n; node++ {
		for v := 0; v < c.vnodes; v++ {
			ring = append(ring, ringPoint{hashU64(uint64(node)<<20 | uint64(v)), node})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].node < ring[j].node
	})
	c.n, c.ring = n, ring
	return ring
}

// Order walks the ring from the key's position, collecting each node
// the first time it appears. The ring ignores health — that is what
// keeps the mapping stable; the balancer skips down nodes itself.
func (c *ConsistentHash) Order(key uint64, n int) []int {
	if n == 0 {
		return nil
	}
	ring := c.ringFor(n)
	h := hashU64(key)
	start := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	order := make([]int, 0, n)
	seen := make([]bool, n)
	for i := 0; i < len(ring) && len(order) < n; i++ {
		p := ring[(start+i)%len(ring)]
		if !seen[p.node] {
			seen[p.node] = true
			order = append(order, p.node)
		}
	}
	return order
}

// PolicyByName maps a policy name to the balancer policy. The
// consistent hash is the only one, whatever the name.
func PolicyByName(string) Policy {
	return NewConsistentHash(0)
}
