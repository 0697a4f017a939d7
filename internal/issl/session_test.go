package issl

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
	"repro/internal/netsim"
	"repro/internal/race"
	"repro/internal/tcpip"
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
const resumedHandshakeAllocs = 27

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

// resumedHandshakeTCPAllocs is the allocation ceiling of one resumed
// handshake pair in TestResumedHandshakeAllocsOverTCP: the TCP connect
// and graceful close included, counted process-wide (both ends, both
// stack loops, the server goroutine). Lower it when a change removes
// allocations; never raise it to admit a new one.
const resumedHandshakeTCPAllocs = 10

// TestResumedHandshakeAllocsOverTCP pins one reconnect-and-resume over
// a tcpip pair, the transport every service runs on, with the
// handshake deadline the services set. It has no pipe and no pipe
// deadlines, so it counts what the tower pays per resumed connection.
func TestResumedHandshakeAllocsOverTCP(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	sess, cache := resumablePair(t)
	key := serverKey(t)
	hub := netsim.NewHub()
	defer hub.Close()
	cliStack, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cliStack.Close()
	srvStack, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer srvStack.Close()
	l, err := srvStack.Listen(443, 1)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error)
	go func() {
		seed := uint64(2001)
		for {
			tcb, err := l.Accept(0)
			if err != nil {
				return
			}
			seed += 2
			_, err = BindServer(tcb, Config{Profile: ProfileUnix, ServerKey: key,
				Rand: prng.NewXorshift(seed), Cache: cache, HandshakeTimeout: resumeTimeout})
			tcb.Close()
			served <- err
		}
	}()
	seed := uint64(2000)
	n := testing.AllocsPerRun(50, func() {
		seed += 2
		tcb, err := cliStack.Connect(srvStack.Addr(), 443, resumeTimeout)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := BindClient(tcb, Config{Profile: ProfileUnix,
			Rand: prng.NewXorshift(seed), Resume: sess, HandshakeTimeout: resumeTimeout})
		tcb.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatal(err)
		}
		if !cli.Resumed() {
			t.Fatal("handshake not resumed")
		}
	})
	if n > resumedHandshakeTCPAllocs {
		t.Errorf("resumed handshake over tcpip: %v allocs/op, ceiling %d", n, resumedHandshakeTCPAllocs)
	}
	t.Logf("resumed handshake over tcpip: %v allocs/op", n)
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
	bogus := &Session{master: testSecret("wrong-master-secret")}
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

// testSecret builds a session secret from a short label.
func testSecret(label string) (m [sha1.Size]byte) {
	copy(m[:], label)
	return m
}

func TestSessionCacheEviction(t *testing.T) {
	c := NewSessionCache(2)
	mk := func(b byte) [SessionIDLen]byte {
		var id [SessionIDLen]byte
		id[0] = b
		return id
	}
	c.put(mk(1), testSecret("m1"))
	c.put(mk(2), testSecret("m2"))
	c.put(mk(3), testSecret("m3")) // evicts 1
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, ok := c.get(mk(1)); ok {
		t.Error("oldest session not evicted")
	}
	if m, ok := c.get(mk(3)); !ok || m != testSecret("m3") {
		t.Error("newest session missing")
	}
	// Updating an existing id must not evict.
	c.put(mk(2), testSecret("m2b"))
	if c.Len() != 2 {
		t.Errorf("len after update = %d", c.Len())
	}
	if m, _ := c.get(mk(2)); m != testSecret("m2b") {
		t.Error("update lost")
	}
}

// randomIDs returns n session IDs drawn from a seeded PRNG, the way
// the handshake draws them.
func randomIDs(seed uint64, n int) [][SessionIDLen]byte {
	rng := prng.NewXorshift(seed)
	ids := make([][SessionIDLen]byte, n)
	for i := range ids {
		rng.Fill(ids[i][:])
	}
	return ids
}

// sessionCacheSizes are the bounds the cache-bound tests run: the
// floor, small and odd sizes, the cluster's default (64) and the
// single redirector's (1024).
var sessionCacheSizes = []int{1, 2, 3, 10, 16, 64, 100, 1024}

// TestSessionCacheGlobalBoundUnderUniformLoad: under 10×max puts of
// random IDs the cache settles at exactly max sessions, never more. A
// cache asked for fewer than one session holds one.
func TestSessionCacheGlobalBoundUnderUniformLoad(t *testing.T) {
	for _, asked := range []int{0, -1} {
		c := NewSessionCache(asked)
		for _, id := range randomIDs(5, 4) {
			c.put(id, testSecret("m"))
		}
		if c.Len() != 1 {
			t.Errorf("NewSessionCache(%d) holds %d sessions, want the floor of 1", asked, c.Len())
		}
	}
	for _, max := range sessionCacheSizes {
		c := NewSessionCache(max)
		for i, id := range randomIDs(uint64(max), 10*max) {
			c.put(id, testSecret("m"))
			if got, want := c.Len(), min(i+1, max); got != want {
				t.Fatalf("max=%d: %d sessions after %d puts, want %d", max, got, i+1, want)
			}
		}
	}
}

// TestSessionCacheNoEvictionBelowMax: max random sessions all stay
// resumable, whatever their IDs — the cache evicts only when full.
func TestSessionCacheNoEvictionBelowMax(t *testing.T) {
	for _, max := range sessionCacheSizes {
		c := NewSessionCache(max)
		ids := randomIDs(uint64(max)+7, max)
		for _, id := range ids {
			c.put(id, testSecret("m"))
		}
		lost := 0
		for _, id := range ids {
			if _, ok := c.get(id); !ok {
				lost++
			}
		}
		if lost > 0 {
			t.Errorf("max=%d: %d of %d sessions evicted before the cache was full", max, lost, max)
		}
	}
}

// TestSessionCachePutFullAllocs pins a put into a full cache at zero
// allocations: the evicted entry and its list element are reused.
func TestSessionCachePutFullAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	const max = 64
	c := NewSessionCache(max)
	ids := randomIDs(3, 2*max)
	for _, id := range ids[:max] {
		c.put(id, testSecret("m"))
	}
	i := 0
	n := testing.AllocsPerRun(max-1, func() {
		c.put(ids[max+i], testSecret("fresh"))
		i++
	})
	if n != 0 {
		t.Errorf("put into a full cache: %v allocs/op, want 0", n)
	}
	if c.Len() != max {
		t.Errorf("len = %d, want %d", c.Len(), max)
	}
}

// TestSessionCacheConcurrent runs puts, gets and removes from several
// goroutines at once (the race detector's subject) and then checks
// the bound and that the map and the LRU list still agree.
func TestSessionCacheConcurrent(t *testing.T) {
	const max = 32
	c := NewSessionCache(max)
	ids := randomIDs(9, 4*max)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := ids[(i*7+g*13)%len(ids)]
				switch i % 5 {
				case 0, 1:
					c.put(id, testSecret("m"))
				case 4:
					c.Remove(id)
				default:
					c.get(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if n, l := c.Len(), c.lru.Len(); n > max || n != l {
		t.Errorf("after concurrent use: %d in the map, %d on the list, max %d", n, l, max)
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

// Len counts the cached sessions.
func (c *SessionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Remove evicts one session, as a server reboot or eviction pressure
// would.
func (c *SessionCache) Remove(id [SessionIDLen]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		c.lru.Remove(el)
		delete(c.items, id)
	}
}
