package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/redirector"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// netWorkload is one networked traffic mix: a closed loop of conns
// client connections from this process, through the in-process netsim
// hub on a clean wire, to a secure redirector (or a cluster of them)
// in front of a plaintext echo backend.
type netWorkload struct {
	keyBits     int
	signWorkers int
	nodes       int // > 1: a cluster behind the hash balancer, with tickets
	// reconnectEvery closes the connection after every request; without
	// it each client keeps one connection for the whole run.
	reconnectEvery bool
	clientRequests int // requests per client before a new client (no session) takes over
	resumePermille int // chance that a reconnect offers the cached session
	payloads       []sizeWeight
}

func (wl *netWorkload) rtSpan() spanName {
	if wl.nodes > 1 {
		return spanClusterRT
	}
	return spanRedirectorRT
}

const (
	conns          = 2
	backendPort    = 9000
	redirectorPort = 4443
	requestTimeout = 10 * time.Second
	// The server key is fixed: the seed decides only payloads and
	// resume decisions, so key generation costs the same in every run.
	serverKeySeed = 0x4B455947454E
)

// world is everything one networked run builds: hub, stacks, backend,
// redirector or cluster. Registries are split by side so client and
// server counters never mix.
type world struct {
	hub            *netsim.Hub
	cli, back, mid *tcpip.Stack
	backL          *tcpip.Listener
	srv            *redirector.UnixServer
	cl             *cluster.Cluster
	cliReg, srvReg *telemetry.Registry
	svc            tcpip.Addr
	svcPort        uint16
	wg             sync.WaitGroup
	// mangle, when set before traffic starts, alters what the backend
	// echoes; the correctness-gate test uses it to corrupt a byte.
	mangle func([]byte)
}

func newWorld(wl *netWorkload) (*world, error) {
	w := &world{hub: netsim.NewHub(), cliReg: telemetry.NewRegistry(), srvReg: telemetry.NewRegistry()}
	fail := func(err error) (*world, error) {
		w.close()
		return nil, err
	}
	var err error
	if w.cli, err = tcpip.NewStackWithTelemetry(w.hub, tcpip.IP4(10, 0, 0, 1), w.cliReg, nil); err != nil {
		return fail(err)
	}
	if w.back, err = tcpip.NewStackWithTelemetry(w.hub, tcpip.IP4(10, 0, 0, 3), w.srvReg, nil); err != nil {
		return fail(err)
	}
	if w.backL, err = w.back.Listen(backendPort, 16); err != nil {
		return fail(err)
	}
	w.wg.Add(1)
	go w.serveBackend()

	key, err := rsa.GenerateKey(prng.NewXorshift(serverKeySeed), wl.keyBits)
	if err != nil {
		return fail(err)
	}
	if wl.nodes > 1 {
		w.cl, err = cluster.New(w.hub, cluster.Config{
			Nodes:          wl.nodes,
			Target:         w.back.Addr(),
			TargetPort:     backendPort,
			Secure:         true,
			ServerKey:      key,
			TicketMaterial: []byte("towerbench ticket material"),
			SignWorkers:    wl.signWorkers,
			Policy:         cluster.PolicyByName("hash"),
			RandSeed:       0xC105FEED,
		})
		if err != nil {
			return fail(err)
		}
		w.svc, w.svcPort = w.cl.Addr()
		return w, nil
	}
	if w.mid, err = tcpip.NewStackWithTelemetry(w.hub, tcpip.IP4(10, 0, 0, 2), w.srvReg, nil); err != nil {
		return fail(err)
	}
	w.srv, err = redirector.NewUnixServer(w.mid, redirector.Config{
		ListenPort:   redirectorPort,
		Target:       w.back.Addr(),
		TargetPort:   backendPort,
		Secure:       true,
		ServerKey:    key,
		SessionCache: issl.NewSessionCache(1024),
		SignWorkers:  wl.signWorkers,
		RandSeed:     0x5EC0DE5EC0DE,
		Metrics:      w.srvReg,
	})
	if err != nil {
		return fail(err)
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.srv.Serve()
	}()
	w.svc, w.svcPort = w.mid.Addr(), redirectorPort
	return w, nil
}

// serveBackend echoes plaintext until the backend listener closes.
func (w *world) serveBackend() {
	defer w.wg.Done()
	for {
		tcb, err := w.backL.Accept(100 * time.Millisecond)
		if errors.Is(err, tcpip.ErrTimeout) {
			continue
		}
		if err != nil {
			return // listener closed
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer tcb.Close()
			buf := make([]byte, 16384)
			for {
				n, err := tcb.Read(buf)
				if n > 0 {
					if w.mangle != nil {
						w.mangle(buf[:n])
					}
					if _, werr := tcb.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
	}
}

// close tears the world down and waits for every goroutine it started.
func (w *world) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.cl != nil {
		w.cl.Close()
	}
	if w.backL != nil {
		w.backL.Close()
	}
	for _, s := range []*tcpip.Stack{w.cli, w.mid, w.back} {
		if s != nil {
			s.Close()
		}
	}
	w.hub.Close()
	w.wg.Wait()
}

// counters reads every layer counter the per-layer metrics are built
// from. Server-side values are summed over cluster nodes.
func (w *world) counters() map[string]uint64 {
	c := map[string]uint64{}
	c["cli.tcp.segs"] = w.cliReg.Counter("tcp.segs_sent").Value() + w.cliReg.Counter("tcp.segs_rcvd").Value()
	c["tcp.retransmits"] = w.cliReg.Counter("tcp.retransmits").Value() + w.srvReg.Counter("tcp.retransmits").Value()
	c["cli.issl.resume_fallback"] = w.cliReg.Counter("issl.resume_fallback").Value()
	c["hub.sent"], c["hub.dropped"] = w.hub.Stats()
	srvRegs := []*telemetry.Registry{w.srvReg}
	if w.cl != nil {
		srvRegs = srvRegs[:0]
		for i := 0; i < w.cl.Nodes(); i++ {
			reg := w.cl.NodeRegistry(i)
			srvRegs = append(srvRegs, reg)
			c[fmt.Sprintf("node%d.bytes", i)] = reg.Counter("redirector.bytes_forward").Value() +
				reg.Counter("redirector.bytes_backward").Value()
		}
		c["cluster.failovers"] = w.cl.Balancer().Stats().Failovers.Value()
	}
	for _, reg := range srvRegs {
		for _, name := range []string{"issl.handshakes_failed", "issl.signpool_ops", "issl.signpool_queue_full",
			"issl.tickets_resumed", "redirector.accepted", "redirector.refused"} {
			c["srv."+name] += reg.Counter(name).Value()
		}
	}
	return c
}

// client is one closed-loop connection: it issues its next request only
// after the previous one's echo is back and checked.
type client struct {
	w    *world
	wl   *netWorkload
	id   int
	plan *planStream

	d        *issl.Dialer
	dialers  uint64
	conn     *issl.Conn
	tr       io.ReadWriteCloser
	out, in  []byte
	log      *spanLog // trace while a traced window runs, else nil
	trace    *spanLog
	parent   int32 // span a tcpip.connect nests under
	reqID    uint64
	mismatch error
	tally    tally
}

func newClient(w *world, wl *netWorkload, id int, seed uint64) *client {
	size := 0
	for _, p := range wl.payloads {
		size = max(size, p.size)
	}
	return &client{w: w, wl: wl, id: id, plan: newPlanStream(wl, seed, id),
		out: make([]byte, size), in: make([]byte, size), parent: -1}
}

// newDialer starts a new client identity: no cached session.
func (c *client) newDialer() {
	c.dialers++
	c.d = &issl.Dialer{
		Dial: c.dial,
		Config: issl.Config{
			Profile:          issl.ProfileUnix,
			Rand:             prng.NewXorshift(mixSeed(uint64(c.id)+0xC11E47, c.dialers)),
			HandshakeTimeout: requestTimeout,
			Metrics:          c.w.cliReg,
		},
		Policy: issl.RetryPolicy{MaxAttempts: 3, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
	}
}

func (c *client) dial() (io.ReadWriteCloser, error) {
	sp := c.log.open(spanConnect, c.parent, c.reqID)
	tcb, err := c.w.cli.Connect(c.w.svc, c.w.svcPort, requestTimeout)
	c.log.close(sp)
	if err != nil {
		return nil, err
	}
	return tcb, nil
}

func (c *client) closeConn() {
	if c.conn != nil {
		c.conn.Close()
		c.tr.Close()
		c.conn, c.tr = nil, nil
	}
}

var errEchoMismatch = errors.New("echo mismatch")

// run issues requests until the deadline. It stops early only on an
// echo mismatch, which fails the whole benchmark.
func (c *client) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		r := c.plan.next()
		if err := c.do(r); err != nil {
			if errors.Is(err, errEchoMismatch) {
				c.mismatch = err
				return
			}
			c.tally.recordFailure()
			c.closeConn()
			continue
		}
		if c.wl.reconnectEvery {
			c.closeConn()
		}
	}
}

// do runs one request: reconnect if planned, write the payload, read
// the echo back and compare it byte for byte.
func (c *client) do(r req) error {
	c.reqID++
	payload := c.out[:r.payload]
	for i := range payload {
		payload[i] = byte(i*131 + c.id*7 + int(c.reqID)*13 + 0x2B)
	}
	start := time.Now()
	root := c.log.open(spanRequest, -1, c.reqID)
	defer c.log.close(root)
	if r.reconnect || c.conn == nil {
		c.closeConn()
		if r.newClient {
			c.newDialer()
		} else if !r.offer {
			c.d.ForgetSession()
		}
		offered := c.d.Session() != nil
		hs := c.log.open(spanHandshake, root, c.reqID)
		c.parent = hs
		conn, tr, err := c.d.DialWithRetry()
		c.log.close(hs)
		if err != nil {
			return err
		}
		c.conn, c.tr = conn, tr
		if offered {
			c.tally.offered++
			if conn.Resumed() {
				c.tally.resumed++
			}
		}
		if hs >= 0 {
			c.log.spans[hs].resumed = conn.Resumed()
		}
	}
	_, _, recIn0, recOut0 := c.conn.Stats()
	wr := c.log.open(spanWrite, root, c.reqID)
	_, err := c.conn.Write(payload)
	c.log.close(wr)
	if err != nil {
		return err
	}
	rt := c.log.open(c.wl.rtSpan(), root, c.reqID)
	c.conn.SetReadDeadline(time.Now().Add(requestTimeout))
	got := 0
	for got < len(payload) {
		n, err := c.conn.Read(c.in[got:len(payload)])
		got += n
		if err != nil {
			c.log.close(rt)
			return fmt.Errorf("echo read after %d/%d bytes: %w", got, len(payload), err)
		}
	}
	c.log.close(rt)
	if !bytes.Equal(c.in[:got], payload) {
		return fmt.Errorf("%w: client %d request %d (%d bytes)", errEchoMismatch, c.id, c.reqID, len(payload))
	}
	_, _, recIn, recOut := c.conn.Stats()
	c.tally.records += int64(recIn - recIn0 + recOut - recOut0)
	c.tally.record(start, len(payload))
	return nil
}

// runWindow runs every client for d and merges what they saw. With
// traced set, each client logs spans to its trace log.
func runWindow(clients []*client, d time.Duration, traced bool) (*window, error) {
	epoch := time.Now()
	deadline := epoch.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.tally, c.log = tally{}, nil
		if traced {
			c.log = c.trace
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(deadline)
		}(c)
	}
	wg.Wait()
	win := &window{wall: time.Since(epoch)}
	for _, c := range clients {
		if c.mismatch != nil {
			return nil, c.mismatch
		}
		win.merge(&c.tally)
	}
	return win, nil
}

// runNet is one networked workload run: set up, warm, measure.
func runNet(wl *netWorkload, o *options) (*outcome, error) {
	var setups []float64
	var w *world
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		nw, err := newWorld(wl)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			nw.close()
		} else {
			w = nw
		}
	}
	defer w.close()
	clients := make([]*client, conns)
	logs := make([]*spanLog, conns)
	spanEpoch := time.Now()
	for i := range clients {
		clients[i] = newClient(w, wl, i, o.seed)
		if o.trace {
			logs[i] = newSpanLog(spanEpoch)
			clients[i].trace = logs[i]
		}
	}
	defer func() {
		for _, c := range clients {
			c.closeConn()
		}
	}()

	if _, err := runWindow(clients, warmup(o.seconds), false); err != nil {
		return nil, err
	}
	run := func(d time.Duration, traced bool) (*window, error) { return runWindow(clients, d, traced) }
	ms, err := measure(o.seconds, o.trace, run, w.counters)
	if err != nil {
		return nil, err
	}
	win := ms.win
	out := &outcome{m: metrics{}, attempted: ms.attempted(), failed: ms.failed(), samples: len(win.lat)}
	if !o.trace {
		win.endToEnd(out.m)
		out.m.put("setup_s", median(setups), "s")
		out.extra = win.forPeople()
		return out, nil
	}

	m := out.m
	delta := func(k string) float64 { return float64(ms.counters[k]) }
	perReq := func(v float64) float64 { return v / float64(max(win.ok(), 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	st := collectSpans(logs)
	m.put("tcpip.connect_ms.p50", quantileMs(st.durs["tcpip.connect"], 0.50), "ms")
	m.put("tcpip.connect_ms.p99", quantileMs(st.durs["tcpip.connect"], 0.99), "ms")
	m.put("tcpip.segs_per_req", perReq(delta("cli.tcp.segs")), "count")
	m.put("tcpip.retransmits", delta("tcp.retransmits"), "count")
	m.put("netsim.frames_per_req", perReq(delta("hub.sent")), "count")
	m.put("netsim.drop_ratio", ratio(delta("hub.dropped"), delta("hub.sent")+delta("hub.dropped")), "ratio")
	m.put("issl.handshake_full_ms.p50", quantileMs(st.hsFull, 0.50), "ms")
	m.put("issl.handshake_full_ms.p99", quantileMs(st.hsFull, 0.99), "ms")
	m.put("issl.handshake_resumed_ms.p50", quantileMs(st.hsResumed, 0.50), "ms")
	m.put("issl.handshake_resumed_ms.p99", quantileMs(st.hsResumed, 0.99), "ms")
	m.put("issl.resume_hit_ratio", ratio(float64(win.resumed), float64(win.offered)), "ratio")
	m.put("issl.resume_fallbacks", delta("cli.issl.resume_fallback"), "count")
	m.put("issl.handshakes_failed", delta("srv.issl.handshakes_failed"), "count")
	m.put("issl.signpool_queue_full_ratio", ratio(delta("srv.issl.signpool_queue_full"), delta("srv.issl.signpool_ops")), "ratio")
	m.put("issl.write_ms.p50", quantileMs(st.durs["issl.write"], 0.50), "ms")
	m.put("issl.records_per_req", perReq(float64(win.records)), "count")
	m.put("issl.tickets_resumed", delta("srv.issl.tickets_resumed"), "count")
	m.put("redirector.roundtrip_ms.p50", quantileMs(st.durs["redirector.roundtrip"], 0.50), "ms")
	m.put("redirector.roundtrip_ms.p99", quantileMs(st.durs["redirector.roundtrip"], 0.99), "ms")
	m.put("redirector.accepted", delta("srv.redirector.accepted"), "count")
	m.put("redirector.refused", delta("srv.redirector.refused"), "count")
	m.put("cluster.roundtrip_ms.p50", quantileMs(st.durs["cluster.roundtrip"], 0.50), "ms")
	m.put("cluster.roundtrip_ms.p99", quantileMs(st.durs["cluster.roundtrip"], 0.99), "ms")
	m.put("cluster.failovers", delta("cluster.failovers"), "count")
	shareMax, total := 0.0, 0.0
	for i := 0; i < wl.nodes; i++ {
		total += delta(fmt.Sprintf("node%d.bytes", i))
	}
	for i := 0; i < wl.nodes && total > 0; i++ {
		shareMax = max(shareMax, delta(fmt.Sprintf("node%d.bytes", i))/total)
	}
	m.put("cluster.node_share_max", shareMax, "ratio")
	procMetrics(ms.proc, win.ok(), m)
	tracedMetrics(st, ms, m)
	out.spans = st
	return out, nil
}

// warmup is the untimed lead-in that fills caches and finishes lazy
// set-up before any window is measured.
func warmup(seconds time.Duration) time.Duration {
	return min(time.Second, seconds/5)
}
