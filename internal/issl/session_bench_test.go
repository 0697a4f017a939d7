package issl

import (
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
	c := NewSessionCache(bound)
	hot := sid(0xA0)
	c.put(hot, testSecret("hot-master"))
	for i := 0; i < 10*bound; i++ {
		if _, ok := c.get(hot); !ok {
			t.Fatalf("hot session evicted after %d churn inserts", i)
		}
		c.put(sid(byte(i)), testSecret("one-shot"))
	}
	if m, ok := c.get(hot); !ok || m != testSecret("hot-master") {
		t.Fatalf("hot session lost after churn: ok=%v m=%q", ok, m)
	}
	if c.Len() > bound {
		t.Errorf("cache exceeded bound: %d > %d", c.Len(), bound)
	}
}

func TestSessionCacheLRUEvictsColdest(t *testing.T) {
	c := NewSessionCache(3)
	a, b, d, e := sid(1), sid(2), sid(3), sid(4)
	c.put(a, testSecret("a"))
	c.put(b, testSecret("b"))
	c.put(d, testSecret("d"))
	c.get(a) // touch a: b is now coldest
	c.put(e, testSecret("e"))
	if _, ok := c.get(b); ok {
		t.Error("LRU kept the coldest entry")
	}
	for _, id := range [][SessionIDLen]byte{a, d, e} {
		if _, ok := c.get(id); !ok {
			t.Errorf("entry %x missing", id[0])
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
// occasional insert of a fresh session — under parallel load, in a
// 95%-get/5%-put mix (see EXPERIMENTS.md E10 for committed numbers).
func BenchmarkSessionCacheResume(b *testing.B) {
	const sessions = 1024
	c := NewSessionCache(4 * sessions)
	ids := randomIDs(0xCAFE, sessions)
	for _, id := range ids {
		c.put(id, testSecret("master-secret"))
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
			if r.Intn(100) < 5 { // 5% fresh sessions, like a 95% resume mix
				var fresh [SessionIDLen]byte
				r.Fill(fresh[:])
				c.put(fresh, testSecret("master-secret"))
			} else {
				c.get(ids[r.Intn(sessions)])
			}
		}
	})
}
