package issl

import (
	"container/list"
	"sync"

	"repro/internal/crypto/sha1"
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
	master [sha1.Size]byte
}

// SessionCache is the server's session store: one mutex, one map and
// one LRU list, holding at most max sessions. A get touches its entry,
// so a session that keeps being resumed survives churn past the bound
// while one-shot sessions age out; a put evicts the least recently
// used session only when the cache is full, and reuses its entry.
// A cache operation takes about 0.1 µs against a resumed handshake's
// ~200 µs, so one lock serves the whole cache (see
// BenchmarkSessionCacheResume and EXPERIMENTS.md E10).
//
// The zero value is unusable; use NewSessionCache.
type SessionCache struct {
	mu    sync.Mutex
	max   int
	items map[[SessionIDLen]byte]*list.Element
	lru   list.List // front = most recently used; values are *sessionEntry
}

// sessionEntry is an LRU node: the ID keyed back to the map plus the
// cached session secret.
type sessionEntry struct {
	id     [SessionIDLen]byte
	master [sha1.Size]byte
}

// NewSessionCache creates a cache bounded to max sessions (min 1).
func NewSessionCache(max int) *SessionCache {
	if max < 1 {
		max = 1
	}
	return &SessionCache{max: max, items: map[[SessionIDLen]byte]*list.Element{}}
}

func (c *SessionCache) put(id [SessionIDLen]byte, master [sha1.Size]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[id]
	if !ok {
		if len(c.items) < c.max {
			el = c.lru.PushFront(&sessionEntry{})
		} else {
			el = c.lru.Back() // full: the coldest entry becomes this one
			delete(c.items, el.Value.(*sessionEntry).id)
		}
		c.items[id] = el
	}
	e := el.Value.(*sessionEntry)
	e.id, e.master = id, master
	c.lru.MoveToFront(el)
}

func (c *SessionCache) get(id [SessionIDLen]byte) (master [sha1.Size]byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[id]
	if !ok {
		return master, false
	}
	c.lru.MoveToFront(el) // touch-on-get: resuming keeps a session hot
	return el.Value.(*sessionEntry).master, true
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
		master: c.secret,
	}
}

// Resumed reports whether this connection used an abbreviated
// handshake.
func (c *Conn) Resumed() bool { return c.resumed }
