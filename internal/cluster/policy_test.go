package cluster

import "testing"

// TestConsistentHashCoversAllNodes: Order must be a permutation of the
// fleet for any key — the failover walk needs every node reachable.
func TestConsistentHashCoversAllNodes(t *testing.T) {
	p := NewConsistentHash(64)
	const nodes = 5
	for key := uint64(0); key < 200; key++ {
		order := p.Order(key*2654435761, nodes)
		if len(order) != nodes {
			t.Fatalf("key %d: order %v not a full permutation", key, order)
		}
		seen := map[int]bool{}
		for _, n := range order {
			if n < 0 || n >= nodes || seen[n] {
				t.Fatalf("key %d: bad order %v", key, order)
			}
			seen[n] = true
		}
	}
}

// TestConsistentHashSpread: no node may own a wildly outsized share of
// the keyspace (vnodes exist exactly to prevent that).
func TestConsistentHashSpread(t *testing.T) {
	p := NewConsistentHash(64)
	const n, keys = 4, 4000
	counts := make([]int, n)
	for key := uint64(0); key < keys; key++ {
		counts[p.Order(key*0x9E3779B97F4A7C15+7, n)[0]]++
	}
	for i, c := range counts {
		// Fair share is 1000; accept a generous band.
		if c < keys/n/3 || c > keys/n*3 {
			t.Errorf("node %d owns %d of %d keys (counts %v)", i, c, keys, counts)
		}
	}
}

// TestConsistentHashStableUnderRemoval is the property the fleet buys
// with the ring: taking one node out only remaps the clients that
// node owned. Every other client keeps its instance — and with it the
// instance's warm session cache.
func TestConsistentHashStableUnderRemoval(t *testing.T) {
	p := NewConsistentHash(64)
	const n, keys = 5, 1000
	const dead = 2
	moved := 0
	for key := uint64(0); key < keys; key++ {
		order := p.Order(key*0xC2B2AE3D27D4EB4F+3, n)
		before := order[0]
		// "Removal" is how the balancer sees it: the ring is unchanged,
		// the dead node is skipped on the walk.
		after := -1
		for _, idx := range order {
			if idx != dead {
				after = idx
				break
			}
		}
		if before == dead {
			moved++
			continue
		}
		if after != before {
			t.Fatalf("key %d moved %d -> %d though node %d died", key, before, after, dead)
		}
	}
	if moved == 0 || moved == keys {
		t.Errorf("dead node owned %d of %d keys; expected a proper share", moved, keys)
	}
}

// TestConsistentHashDeterministic: two independent policy instances
// must agree — the ring is a pure function of fleet size.
func TestConsistentHashDeterministic(t *testing.T) {
	a, b := NewConsistentHash(32), NewConsistentHash(32)
	const nodes = 4
	for key := uint64(1); key < 100; key++ {
		oa, ob := a.Order(key, nodes), b.Order(key, nodes)
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("key %d: %v vs %v", key, oa, ob)
			}
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"hash", ""} {
		if _, ok := PolicyByName(name).(*ConsistentHash); !ok {
			t.Errorf("PolicyByName(%q) is not the consistent hash", name)
		}
	}
}
