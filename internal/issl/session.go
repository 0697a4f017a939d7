package issl

import (
	"container/list"
	"sync"
)

// Session resumption, after Goldberg, Buff & Schmitt — the work the
// paper cites for SSL's cost ("Secure web server performance using SSL
// session keys", the [10] of §2): caching the negotiated master secret
// under a session ID lets a returning client skip the expensive RSA
// key exchange and jump straight to Finished. The embedded profile
// benefits too (it skips nothing cryptographically, but halves the
// handshake's records).
//
// Wire format: ClientHello carries an optional session ID; when the
// server finds it in its cache, ServerHello echoes it with the resumed
// flag set and both sides derive fresh record keys from the cached
// session secret plus the new nonces.
//
// The session secret is the master secret of the full handshake that
// established the session, and it is invariant across resumptions:
// each resumed connection derives its own per-connection master and
// keys from it, but Conn.Session() and every issued ticket carry the
// secret itself — never a resumed connection's derived master, which
// the server's cache entry would not match on the next offer. So a
// client can chain resumptions indefinitely, or resume one Session
// value any number of times.

// SessionIDLen is the session identifier length in bytes.
const SessionIDLen = 16

// Session is resumable handshake state, returned by Conn.Session on
// the client and cached server-side in a SessionCache; master is the
// session secret. Ticket, when present, is the server's sealed session
// ticket (see ticket.go): the client offers it on reconnect and ANY
// server instance holding the cluster ticket key can resume the session
// statelessly — the ID-based path below needs the specific instance
// whose cache holds the entry.
type Session struct {
	ID     [SessionIDLen]byte
	Ticket []byte
	master []byte
}

// SessionCache is the server's bounded session store, sharded N ways
// by session-ID prefix so concurrent resumption handshakes contend on
// a shard mutex instead of one global lock — under a fleet of
// returning clients the single-mutex cache is the first server-side
// bottleneck a load generator exposes (see BenchmarkSessionCacheResume
// for the measured difference). Each shard is bounded independently
// and evicts least-recently-used: a get touches the entry, so a hot
// session survives churn past the bound while one-shot sessions age
// out. Session IDs come from the handshake PRNG, so the prefix shard
// choice is uniform.
//
// The zero value is unusable; use NewSessionCache.
type SessionCache struct {
	shards []sessionShard
	mask   uint64
}

// sessionShard is one independently locked, independently bounded LRU.
type sessionShard struct {
	mu    sync.Mutex
	max   int
	items map[[SessionIDLen]byte]*list.Element
	lru   list.List // front = most recently used; values are *sessionEntry
}

// sessionEntry is an LRU node: the ID keyed back to the map plus the
// cached session secret.
type sessionEntry struct {
	id     [SessionIDLen]byte
	master []byte
}

// defaultSessionShards is the shard count NewSessionCache uses. Eight
// shards flatten the resumption-path contention of a ~16-core host.
const defaultSessionShards = 8

// NewSessionCache creates a cache bounded to max sessions (min 1),
// sharded defaultSessionShards ways (fewer when max is small, so the
// global bound is never exceeded).
func NewSessionCache(max int) *SessionCache {
	return newSessionCacheSharded(max, defaultSessionShards)
}

// newSessionCacheSharded creates a cache bounded to max sessions (min
// 1) split over the given number of shards. The shard count is rounded
// down to a power of two, clamped to [1, max] — a shard never holds
// fewer than one session, and shards=1 is the single-mutex layout
// (the pre-sharding baseline the package's benchmarks compare with).
func newSessionCacheSharded(max, shards int) *SessionCache {
	if max < 1 {
		max = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > max {
		shards = max
	}
	// Round down to a power of two so shard selection is a mask.
	for shards&(shards-1) != 0 {
		shards &= shards - 1
	}
	perShard := (max + shards - 1) / shards
	c := &SessionCache{shards: make([]sessionShard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		c.shards[i].max = perShard
		c.shards[i].items = map[[SessionIDLen]byte]*list.Element{}
	}
	return c
}

// shard selects the shard for an ID by its leading byte.
func (c *SessionCache) shard(id [SessionIDLen]byte) *sessionShard {
	return &c.shards[uint64(id[0])&c.mask]
}

func (c *SessionCache) put(id [SessionIDLen]byte, master []byte) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, exists := s.items[id]; exists {
		el.Value.(*sessionEntry).master = append([]byte(nil), master...)
		s.lru.MoveToFront(el)
		return
	}
	for len(s.items) >= s.max {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		s.lru.Remove(oldest)
		delete(s.items, oldest.Value.(*sessionEntry).id)
	}
	s.items[id] = s.lru.PushFront(&sessionEntry{id: id, master: append([]byte(nil), master...)})
}

func (c *SessionCache) get(id [SessionIDLen]byte) ([]byte, bool) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[id]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el) // touch-on-get: resuming keeps a session hot
	return append([]byte(nil), el.Value.(*sessionEntry).master...), true
}

// Session returns resumable state after a successful client handshake,
// or nil when the server issued neither a session ID nor a ticket.
func (c *Conn) Session() *Session {
	if c.sessionID == ([SessionIDLen]byte{}) && len(c.ticket) == 0 {
		return nil
	}
	return &Session{
		ID:     c.sessionID,
		Ticket: append([]byte(nil), c.ticket...),
		master: append([]byte(nil), c.secret...),
	}
}

// Resumed reports whether this connection used an abbreviated
// handshake.
func (c *Conn) Resumed() bool { return c.resumed }
