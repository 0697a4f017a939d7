package issl

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/crypto/prng"
)

// TestSessionCacheLRUHotSurvivesChurn is the eviction-policy upgrade's
// contract: a session that keeps being resumed (touched by get) must
// survive arbitrarily many one-shot sessions churning past the bound,
// where the old FIFO policy would have evicted it by insertion age.
func TestSessionCacheLRUHotSurvivesChurn(t *testing.T) {
	const bound = 8
	// One shard so every session below competes for the same LRU list —
	// the sharpest version of the test.
	c := newSessionCacheSharded(bound, 1)
	hot := sid(0xA0)
	c.put(hot, []byte("hot-master"))
	for i := 0; i < 10*bound; i++ {
		if _, ok := c.get(hot); !ok {
			t.Fatalf("hot session evicted after %d churn inserts", i)
		}
		c.put(sid(byte(i)), []byte("one-shot"))
	}
	if m, ok := c.get(hot); !ok || string(m) != "hot-master" {
		t.Fatalf("hot session lost after churn: ok=%v m=%q", ok, m)
	}
	if c.Len() > bound {
		t.Errorf("cache exceeded bound: %d > %d", c.Len(), bound)
	}
}

func TestSessionCacheLRUEvictsColdest(t *testing.T) {
	c := newSessionCacheSharded(3, 1)
	a, b, d, e := sid(1), sid(2), sid(3), sid(4)
	c.put(a, []byte("a"))
	c.put(b, []byte("b"))
	c.put(d, []byte("d"))
	c.get(a) // touch a: b is now coldest
	c.put(e, []byte("e"))
	if _, ok := c.get(b); ok {
		t.Error("LRU kept the coldest entry")
	}
	for _, id := range [][SessionIDLen]byte{a, d, e} {
		if _, ok := c.get(id); !ok {
			t.Errorf("entry %x missing", id[0])
		}
	}
}

func TestSessionCacheShardBounds(t *testing.T) {
	// 64 total over 8 shards: 8 per shard; stuffing one shard (fixed
	// leading byte) must bound it at 8 without touching the others.
	c := newSessionCacheSharded(64, 8)
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d", len(c.shards))
	}
	for i := 0; i < 100; i++ {
		var id [SessionIDLen]byte
		id[0] = 8 // all land in shard 0 (8 & 7)
		id[1] = byte(i)
		c.put(id, []byte("m"))
	}
	if got := c.Len(); got != 8 {
		t.Errorf("hot shard holds %d, want per-shard bound 8", got)
	}
	// Other shards still accept entries independently.
	c.put(sid(1), []byte("x"))
	if got := c.Len(); got != 9 {
		t.Errorf("len = %d after cross-shard insert", got)
	}
}

func TestSessionCacheShardRounding(t *testing.T) {
	for _, tc := range []struct{ max, shards, want int }{
		{16, 8, 8},
		{16, 0, 1},
		{16, 7, 4}, // rounded down to a power of two
		{2, 8, 2},  // clamped to max
		{1, 8, 1},
		{0, -1, 1},
	} {
		c := newSessionCacheSharded(tc.max, tc.shards)
		if len(c.shards) != tc.want {
			t.Errorf("max=%d shards=%d: got %d shards, want %d",
				tc.max, tc.shards, len(c.shards), tc.want)
		}
	}
}

// sid builds a session ID with the given leading byte.
func sid(b byte) [SessionIDLen]byte {
	var id [SessionIDLen]byte
	id[0] = b
	id[1] = b ^ 0x5A
	return id
}

// BenchmarkSessionCacheResume measures the server's resumption hot
// path — the cache get every abbreviated handshake performs, plus the
// occasional insert of a fresh session — under parallel load, across
// shard counts. shards=1 is the pre-sharding single-mutex layout; the
// sharded variants are the scale fix. On a multi-core host the sharded
// cache sustains several times the single-mutex op rate (see
// EXPERIMENTS.md E10 for committed numbers).
func BenchmarkSessionCacheResume(b *testing.B) {
	for _, shards := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const sessions = 1024
			c := newSessionCacheSharded(4*sessions, shards)
			ids := make([][SessionIDLen]byte, sessions)
			rng := prng.NewXorshift(0xCAFE)
			for i := range ids {
				rng.Fill(ids[i][:])
				c.put(ids[i], []byte("master-secret-0123456789"))
			}
			var seq sync.Mutex
			next := 0
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Per-goroutine PRNG: uncontended, deterministic enough.
				seq.Lock()
				next++
				r := prng.NewXorshift(uint64(next) * 0x9E3779B97F4A7C15)
				seq.Unlock()
				for pb.Next() {
					id := ids[r.Intn(sessions)]
					if r.Intn(100) < 5 { // 5% fresh sessions, like a 95% resume mix
						var fresh [SessionIDLen]byte
						r.Fill(fresh[:])
						c.put(fresh, []byte("master-secret-0123456789"))
					} else {
						c.get(id)
					}
				}
			})
		})
	}
}
