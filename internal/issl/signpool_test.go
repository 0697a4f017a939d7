package issl

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/telemetry"
)

// TestSignPoolDecrypt pins the pool against the inline path: same key,
// same ciphertext, same plaintext — and the ops counter / depth gauge
// agree with what ran.
func TestSignPoolDecrypt(t *testing.T) {
	key := serverKey(t)
	rng := prng.NewXorshift(0xDEC)
	ct, err := key.PublicKey.EncryptPKCS1(rng, []byte("pooled premaster"))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	pool := NewSignPool(2, 4, reg)
	defer pool.Close()

	want, err := key.DecryptPKCS1(ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Decrypt(key, ct)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("pool decrypt: %q %v, want %q", got, err, want)
	}
	if n := reg.Counter("issl.signpool_ops").Value(); n != 1 {
		t.Errorf("signpool_ops = %d, want 1", n)
	}
	if d := reg.Gauge("issl.signpool_queue_depth").Value(); d != 0 {
		t.Errorf("queue depth after drain = %d", d)
	}

	// A nil pool runs inline and stays nil-safe.
	var nilPool *SignPool
	got, err = nilPool.Decrypt(key, ct)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("nil pool decrypt: %q %v", got, err)
	}
}

// TestSignPoolSaturationQueues pins the ISSUE's queue discipline: a
// full queue means graceful queuing — every submission completes, none
// error — with issl.signpool_queue_full counting the overflow waits.
func TestSignPoolSaturationQueues(t *testing.T) {
	key := serverKey(t)
	rng := prng.NewXorshift(0x5A7)
	ct, err := key.PublicKey.EncryptPKCS1(rng, []byte("stampede premaster"))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	// One worker, queue of one: any concurrency saturates instantly.
	pool := NewSignPool(1, 1, reg)
	defer pool.Close()

	// Pin the single worker on a gated op so the queue is provably full
	// when the decrypt barrage arrives (the real decrypt is now fast
	// enough to outrun goroutine spawn otherwise).
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool.run(func() ([]byte, error) {
			close(started)
			<-gate
			return nil, nil
		})
	}()
	<-started

	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := pool.Decrypt(key, ct)
			errs <- err
		}()
	}
	// Saturation is observable before release: the worker is pinned,
	// the one-slot buffer holds one request, the rest counted overflow.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("issl.signpool_queue_full").Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue_full = %d before release, want %d",
				reg.Counter("issl.signpool_queue_full").Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("saturated pool returned error: %v", err)
		}
	}
	if ops := reg.Counter("issl.signpool_ops").Value(); ops != n+1 {
		t.Errorf("signpool_ops = %d, want %d", ops, n+1)
	}
	if full := reg.Counter("issl.signpool_queue_full").Value(); full == 0 {
		t.Error("signpool_queue_full = 0; expected overflow waits with 16 ops on a 1/1 pool")
	}
	if d := reg.Gauge("issl.signpool_queue_depth").Value(); d != 0 {
		t.Errorf("queue depth after drain = %d", d)
	}
}

// TestSignPoolCloseRunsInline: operations after Close still succeed
// (inline), so draining connections finish their handshakes.
func TestSignPoolCloseRunsInline(t *testing.T) {
	key := serverKey(t)
	rng := prng.NewXorshift(0xC10)
	ct, err := key.PublicKey.EncryptPKCS1(rng, []byte("late premaster"))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSignPool(1, 1, telemetry.NewRegistry())
	pool.Close()
	pool.Close() // idempotent
	if _, err := pool.Decrypt(key, ct); err != nil {
		t.Fatalf("decrypt after close: %v", err)
	}
}

// TestDialRetryTicketFallbackUnderSaturatedPool is the stampede
// degradation check from the ISSUE: a client whose sealed ticket the
// server rejects must degrade ticket→full within the attempt — counted
// by issl.resume_fallback — while the server's sign pool is saturated
// by a barrage of concurrent full handshakes. The saturated queue must
// slow the handshake, never fail it.
func TestDialRetryTicketFallbackUnderSaturatedPool(t *testing.T) {
	key := serverKey(t)
	mkStore := func(material byte) *TicketKeyStore {
		s, err := NewTicketKeyStore(bytes.Repeat([]byte{material}, 32), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	reg := telemetry.NewRegistry()
	// One worker, queue of one: the stampede below keeps it pegged.
	pool := NewSignPool(1, 1, reg)
	defer pool.Close()

	serve := func(tkts *TicketKeyStore, seed uint64, tr net.Conn) {
		cfg := Config{Profile: ProfileUnix, ServerKey: key,
			Rand: prng.NewXorshift(seed), TicketKeys: tkts,
			SignPool: pool, Metrics: reg}
		go func() {
			conn, err := BindServer(tr, cfg)
			if err != nil {
				tr.Close()
				return
			}
			buf := make([]byte, 1024)
			for {
				n, err := conn.Read(buf)
				if n > 0 {
					conn.Write(buf[:n])
				}
				if err != nil {
					tr.Close()
					return
				}
			}
		}()
	}

	// Epoch 1: earn a ticket.
	oldStore := mkStore(0x11)
	seed := uint64(9000)
	dialTo := func(tkts *TicketKeyStore) func() (io.ReadWriteCloser, error) {
		return func() (io.ReadWriteCloser, error) {
			ct, st := net.Pipe()
			seed++
			serve(tkts, seed, st)
			return ct, nil
		}
	}
	d := &Dialer{
		Dial:   dialTo(oldStore),
		Config: Config{Profile: ProfileUnix, Rand: prng.NewXorshift(77), Metrics: reg},
		sleep:  func(time.Duration) {},
	}
	c1, tr1, err := d.DialWithRetry()
	if err != nil {
		t.Fatalf("first dial: %v", err)
	}
	c1.Close()
	tr1.Close()
	if s := d.Session(); s == nil || len(s.Ticket) == 0 {
		t.Fatalf("no ticket after first handshake: %+v", d.Session())
	}

	// Stampede: concurrent full handshakes through the same pool keep
	// the single worker busy while the fallback client runs.
	stop := make(chan struct{})
	var stampede sync.WaitGroup
	for i := 0; i < 4; i++ {
		stampede.Add(1)
		go func(i int) {
			defer stampede.Done()
			rng := prng.NewXorshift(uint64(0xF00 + i))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ct, st := net.Pipe()
				serve(mkStore(0x22), uint64(7000+i), st)
				cli := Config{Profile: ProfileUnix, Rand: rng, Metrics: reg}
				if conn, err := BindClient(ct, cli); err == nil {
					conn.Close()
				}
				ct.Close()
			}
		}(i)
	}

	// Epoch 2: the server's ticket keys changed; the offered ticket is
	// rejected and the same attempt completes a full handshake.
	d.Dial = dialTo(mkStore(0x22))
	before := reg.Counter("issl.resume_fallback").Value()
	c2, tr2, err := d.DialWithRetry()
	close(stop)
	stampede.Wait()
	if err != nil {
		t.Fatalf("fallback dial under saturated pool: %v", err)
	}
	defer tr2.Close()
	defer c2.Close()
	if c2.Resumed() {
		t.Error("connection resumed on a ticket the server should reject")
	}
	st := d.Stats()
	if st.ResumeFallbacks == 0 {
		t.Errorf("ResumeFallbacks = 0, want >= 1: %+v", st)
	}
	if after := reg.Counter("issl.resume_fallback").Value(); after <= before {
		t.Errorf("issl.resume_fallback did not increment (%d -> %d)", before, after)
	}
	if rej := reg.Counter("issl.tickets_rejected").Value(); rej == 0 {
		t.Error("tickets_rejected = 0, want >= 1")
	}
	// Echo proof: the degraded connection carries data byte-exactly.
	msg := []byte("degraded but alive")
	if _, err := c2.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := c2.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("echo = %q, %v", buf[:n], err)
	}
}
