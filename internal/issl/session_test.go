package issl

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/race"
	"repro/internal/telemetry"
)

// resumeTimeout bounds every handshake in the resumption tests, so a
// Finished mismatch (the server fails, the client waits for a Finished
// that never comes) fails the test in seconds instead of hanging it.
const resumeTimeout = 5 * time.Second

// resumablePair does a full handshake with a server cache and returns
// the client session plus the shared cache.
func resumablePair(t *testing.T) (*Session, *SessionCache) {
	t.Helper()
	cache := NewSessionCache(16)
	cliCfg := Config{Profile: ProfileUnix, Rand: prng.NewXorshift(51)}
	srvCfg := Config{Profile: ProfileUnix, ServerKey: serverKey(t),
		Rand: prng.NewXorshift(52), Cache: cache}
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	if cli.Resumed() || srv.Resumed() {
		t.Fatal("first handshake claims resumption")
	}
	sess := cli.Session()
	if sess == nil {
		t.Fatal("no session issued despite server cache")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache has %d sessions", cache.Len())
	}
	return sess, cache
}

// resumedHandshakeAllocs is the allocation ceiling of one resumed
// handshake pair in TestResumedHandshakeAllocs, counted process-wide:
// both ends, their PRNGs, the pipe and the server goroutine. Lower it
// when a change removes allocations; never raise it to admit a new one.
const resumedHandshakeAllocs = 78

// TestResumedHandshakeAllocs pins the allocations of one resumed
// handshake pair over an in-memory pipe, the BenchmarkE9_ResumedHandshake
// shape. A per-bind call that boxes its arguments (a log line, an
// unguarded trace emit) fails it.
func TestResumedHandshakeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	sess, cache := resumablePair(t)
	key := serverKey(t)
	seed := uint64(1000)
	n := testing.AllocsPerRun(50, func() {
		seed += 2
		ct, st := net.Pipe()
		done := make(chan error, 1)
		go func() {
			_, err := BindServer(st, Config{Profile: ProfileUnix, ServerKey: key,
				Rand: prng.NewXorshift(seed + 1), Cache: cache})
			done <- err
		}()
		cli, err := BindClient(ct, Config{Profile: ProfileUnix,
			Rand: prng.NewXorshift(seed), Resume: sess})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !cli.Resumed() {
			t.Fatal("handshake not resumed")
		}
	})
	if n > resumedHandshakeAllocs {
		t.Errorf("resumed handshake pair: %v allocs/op, ceiling %d", n, resumedHandshakeAllocs)
	}
	t.Logf("resumed handshake pair: %v allocs/op", n)
}

func TestSessionResumptionSkipsRSA(t *testing.T) {
	sess, cache := resumablePair(t)
	// Second connection offers the session; handshake must complete
	// as resumed on both ends and carry data.
	cliCfg := Config{Profile: ProfileUnix, Rand: prng.NewXorshift(61), Resume: sess}
	srvCfg := Config{Profile: ProfileUnix, ServerKey: serverKey(t),
		Rand: prng.NewXorshift(62), Cache: cache}
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	if !cli.Resumed() || !srv.Resumed() {
		t.Errorf("resumed: client=%v server=%v", cli.Resumed(), srv.Resumed())
	}
	go srv.Write([]byte("resumed data"))
	buf := make([]byte, 64)
	n, err := cli.Read(buf)
	if err != nil || string(buf[:n]) != "resumed data" {
		t.Errorf("data after resumption: %q, %v", buf[:n], err)
	}
}

func TestResumptionWithEmbeddedProfile(t *testing.T) {
	cache := NewSessionCache(4)
	psk := []byte("emb-psk")
	full := func(resume *Session) (*Conn, *Conn) {
		cliCfg := Config{Profile: ProfileEmbedded, PSK: psk,
			Rand: prng.NewXorshift(71), Resume: resume}
		srvCfg := Config{Profile: ProfileEmbedded, PSK: psk,
			Rand: prng.NewXorshift(72), Cache: cache}
		return handshakePairT(t, cliCfg, srvCfg)
	}
	cli, _ := full(nil)
	sess := cli.Session()
	if sess == nil {
		t.Fatal("no embedded session issued")
	}
	cli2, srv2 := full(sess)
	if !cli2.Resumed() || !srv2.Resumed() {
		t.Error("embedded resumption did not engage")
	}
}

// handshakePairT is handshakePair for reuse from this file.
func handshakePairT(t *testing.T, cliCfg, srvCfg Config) (*Conn, *Conn) {
	return handshakePair(t, cliCfg, srvCfg)
}

func TestUnknownSessionFallsBackToFull(t *testing.T) {
	_, cache := resumablePair(t)
	bogus := &Session{master: []byte("wrong-master-secret")}
	copy(bogus.ID[:], bytes.Repeat([]byte{0xEE}, SessionIDLen))
	cliCfg := Config{Profile: ProfileUnix, Rand: prng.NewXorshift(81), Resume: bogus}
	srvCfg := Config{Profile: ProfileUnix, ServerKey: serverKey(t),
		Rand: prng.NewXorshift(82), Cache: cache}
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	if cli.Resumed() || srv.Resumed() {
		t.Error("unknown session was resumed")
	}
	// Full handshake still works end to end.
	go srv.Write([]byte("full fallback"))
	buf := make([]byte, 32)
	n, err := cli.Read(buf)
	if err != nil || string(buf[:n]) != "full fallback" {
		t.Errorf("fallback data: %q %v", buf[:n], err)
	}
}

func TestRemovedSessionNotResumed(t *testing.T) {
	sess, cache := resumablePair(t)
	cache.Remove(sess.ID)
	cliCfg := Config{Profile: ProfileUnix, Rand: prng.NewXorshift(91), Resume: sess}
	srvCfg := Config{Profile: ProfileUnix, ServerKey: serverKey(t),
		Rand: prng.NewXorshift(92), Cache: cache}
	cli, _ := handshakePair(t, cliCfg, srvCfg)
	if cli.Resumed() {
		t.Error("evicted session was resumed")
	}
}

func TestNoCacheNoSession(t *testing.T) {
	cliCfg, srvCfg := unixConfigs(t, 128, 128)
	cli, _ := handshakePair(t, cliCfg, srvCfg)
	if cli.Session() != nil {
		t.Error("session issued without a server cache")
	}
}

func TestSessionCacheEviction(t *testing.T) {
	c := NewSessionCache(2)
	mk := func(b byte) [SessionIDLen]byte {
		var id [SessionIDLen]byte
		id[0] = b
		return id
	}
	c.put(mk(1), []byte("m1"))
	c.put(mk(2), []byte("m2"))
	c.put(mk(3), []byte("m3")) // evicts 1
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, ok := c.get(mk(1)); ok {
		t.Error("oldest session not evicted")
	}
	if m, ok := c.get(mk(3)); !ok || string(m) != "m3" {
		t.Error("newest session missing")
	}
	// Updating an existing id must not evict.
	c.put(mk(2), []byte("m2b"))
	if c.Len() != 2 {
		t.Errorf("len after update = %d", c.Len())
	}
	if m, _ := c.get(mk(2)); string(m) != "m2b" {
		t.Error("update lost")
	}
}

// shardID builds a session ID that lands in the shard selected by the
// lead byte, distinguished within the shard by tail.
func shardID(lead, tail byte) [SessionIDLen]byte {
	var id [SessionIDLen]byte
	id[0], id[1] = lead, tail
	return id
}

// TestSessionCacheShardBoundaryEviction pins the per-shard LRU bound:
// overflowing one shard evicts that shard's LRU entry even while the
// global count is far below max, and neighboring shards are untouched.
func TestSessionCacheShardBoundaryEviction(t *testing.T) {
	c := newSessionCacheSharded(8, 4) // 4 shards × 2 sessions each
	if len(c.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(c.shards))
	}

	// Park one resident in a neighboring shard (lead byte 1 -> shard 1).
	c.put(shardID(1, 0), []byte("neighbor"))

	// Overflow shard 0: three same-lead IDs into a 2-slot shard.
	c.put(shardID(0, 1), []byte("s1"))
	c.put(shardID(0, 2), []byte("s2"))
	c.put(shardID(0, 3), []byte("s3")) // shard 0 full -> evicts s1

	if got := c.Len(); got != 3 {
		t.Fatalf("global len = %d, want 3 (bound is per shard, max is 8)", got)
	}
	if _, ok := c.get(shardID(0, 1)); ok {
		t.Error("shard-LRU entry survived overflow despite global len < max")
	}
	for _, tail := range []byte{2, 3} {
		if _, ok := c.get(shardID(0, tail)); !ok {
			t.Errorf("entry tail=%d lost from overflowed shard", tail)
		}
	}
	if m, ok := c.get(shardID(1, 0)); !ok || string(m) != "neighbor" {
		t.Error("neighboring shard was disturbed by another shard's eviction")
	}
}

// TestSessionCacheTouchOnGetAcrossShardBoundary: a get refreshes LRU
// position within its shard, so the untouched entry is the one evicted.
func TestSessionCacheTouchOnGetAcrossShardBoundary(t *testing.T) {
	c := newSessionCacheSharded(8, 4)
	c.put(shardID(4, 1), []byte("old-but-hot")) // shard 0 (4&3)
	c.put(shardID(4, 2), []byte("cold"))
	if _, ok := c.get(shardID(4, 1)); !ok { // touch: now MRU
		t.Fatal("warm get missed")
	}
	c.put(shardID(4, 3), []byte("new")) // evicts the cold one
	if _, ok := c.get(shardID(4, 2)); ok {
		t.Error("untouched entry survived; touch-on-get not honored at the boundary")
	}
	if _, ok := c.get(shardID(4, 1)); !ok {
		t.Error("touched entry was evicted")
	}
}

// TestSessionCacheGlobalBoundUnderUniformLoad: with max divisible by
// the shard count, uniform inserts settle at exactly max sessions.
func TestSessionCacheGlobalBoundUnderUniformLoad(t *testing.T) {
	c := newSessionCacheSharded(8, 4)
	for i := 0; i < 40; i++ {
		c.put(shardID(byte(i), byte(i>>2)), []byte{byte(i)})
	}
	if got := c.Len(); got != 8 {
		t.Fatalf("len after uniform churn = %d, want exactly max (8)", got)
	}
}

// TestSessionCacheShardedConstruction pins the documented rounding and
// clamping: power-of-two rounding, shards <= max, minimums of one.
func TestSessionCacheShardedConstruction(t *testing.T) {
	cases := []struct {
		max, shards, want int
	}{
		{8, 3, 2},  // rounded down to a power of two
		{8, 8, 8},  // exact
		{4, 64, 4}, // clamped to max
		{0, 0, 1},  // minimums
		{1, 16, 1}, // one-session cache is single-shard
		{10, 4, 4}, // non-divisible max still shards
	}
	for _, tc := range cases {
		if got := len(newSessionCacheSharded(tc.max, tc.shards).shards); got != tc.want {
			t.Errorf("newSessionCacheSharded(%d,%d) has %d shards, want %d",
				tc.max, tc.shards, got, tc.want)
		}
	}
}

// TestE9ResumptionSpeedsUpHandshake measures the Goldberg et al.
// mechanism the paper cites: resumed handshakes skip the RSA operation
// and should be dramatically cheaper.
func TestE9ResumptionSpeedsUpHandshake(t *testing.T) {
	cache := NewSessionCache(16)
	key := serverKey(t)

	doHandshake := func(resume *Session, seed uint64) (*Conn, time.Duration) {
		ct, st := pipePair()
		type res struct {
			c   *Conn
			err error
		}
		srvCh := make(chan res, 1)
		go func() {
			c, err := BindServer(st, Config{Profile: ProfileUnix, ServerKey: key,
				Rand: prng.NewXorshift(seed + 1), Cache: cache, HandshakeTimeout: resumeTimeout})
			srvCh <- res{c, err}
		}()
		start := time.Now()
		cli, err := BindClient(ct, Config{Profile: ProfileUnix,
			Rand: prng.NewXorshift(seed), Resume: resume, HandshakeTimeout: resumeTimeout})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if r := <-srvCh; r.err != nil {
			t.Fatal(r.err)
		}
		return cli, elapsed
	}

	cli, fullTime := doHandshake(nil, 100)
	sess := cli.Session()
	if sess == nil {
		t.Fatal("no session")
	}
	// Average a few resumed handshakes.
	var resumedTotal time.Duration
	const n = 5
	for i := 0; i < n; i++ {
		rc, d := doHandshake(sess, uint64(200+i))
		if !rc.Resumed() {
			t.Fatal("handshake not resumed")
		}
		resumedTotal += d
	}
	resumedAvg := resumedTotal / n
	t.Logf("E9: full handshake %v, resumed %v (%.1fx faster)",
		fullTime, resumedAvg, float64(fullTime)/float64(resumedAvg))
	if resumedAvg >= fullTime {
		t.Errorf("resumption not faster: full=%v resumed=%v", fullTime, resumedAvg)
	}
}

// TestChainedResumptionStaysResumable pins the session secret's
// invariance in both shapes a client uses it. Chained: a Dialer
// reconnects, each time offering the session the previous connection
// handed back — after the first full handshake, every reconnect must
// resume. Repeated: one Session value is resumed over and over (the E9
// shape). Both run against a cache-only server (session-ID path) and a
// ticket-only server (stateless path), with no failed handshake on
// either side.
func TestChainedResumptionStaysResumable(t *testing.T) {
	tickets, err := NewTicketKeyStore([]byte("chained resumption ticket key"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cache   *SessionCache
		tickets *TicketKeyStore
	}{
		{"cache", NewSessionCache(16), nil},
		{"ticket", nil, tickets},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			seed := uint64(500)
			// dial hands the server end of a fresh pipe to a server
			// handshake and returns the client end.
			dial := func() (io.ReadWriteCloser, error) {
				ct, st := net.Pipe()
				seed++
				cfg := Config{Profile: ProfileUnix, ServerKey: serverKey(t),
					Rand: prng.NewXorshift(seed), Cache: tc.cache, TicketKeys: tc.tickets,
					Metrics: reg, HandshakeTimeout: resumeTimeout}
				go func() {
					if _, err := BindServer(st, cfg); err != nil {
						st.Close()
					}
				}()
				return ct, nil
			}

			d := &Dialer{
				Dial: dial,
				Config: Config{Profile: ProfileUnix, Rand: prng.NewXorshift(61),
					HandshakeTimeout: resumeTimeout},
				sleep: func(time.Duration) {},
			}
			const reconnects = 8
			var first *Session
			for i := 0; i <= reconnects; i++ {
				c, tr, err := d.DialWithRetry()
				if err != nil {
					t.Fatalf("dial %d: %v", i, err)
				}
				if got, want := c.Resumed(), i > 0; got != want {
					t.Errorf("dial %d: resumed = %v, want %v", i, got, want)
				}
				if i == 0 {
					first = c.Session()
				}
				tr.Close()
			}
			if st := d.Stats(); st.FullHandshakes != 1 || st.Resumptions != reconnects || st.ResumeFallbacks != 0 {
				t.Errorf("chained: stats = %+v, want 1 full, %d resumed, 0 fallbacks", st, reconnects)
			}

			if first == nil {
				t.Fatal("no session after the full handshake")
			}
			for i := 0; i < 5; i++ {
				tr, _ := dial()
				c, err := BindClient(tr, Config{Profile: ProfileUnix,
					Rand: prng.NewXorshift(uint64(70 + i)), Resume: first, HandshakeTimeout: resumeTimeout})
				if err != nil {
					t.Fatalf("repeated resume %d: %v", i, err)
				}
				if !c.Resumed() {
					t.Errorf("repeated resume %d: not resumed", i)
				}
				tr.Close()
			}
			if v := reg.Counter("issl.handshakes_failed").Value(); v != 0 {
				t.Errorf("server issl.handshakes_failed = %d, want 0", v)
			}
		})
	}
}

// Len counts the cached sessions across all shards.
func (c *SessionCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Remove evicts one session, as a server reboot or eviction pressure
// would.
func (c *SessionCache) Remove(id [SessionIDLen]byte) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[id]; ok {
		s.lru.Remove(el)
		delete(s.items, id)
	}
}
