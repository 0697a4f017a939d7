package issl

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/crypto/prng"
)

// echoServer runs server handshakes (sharing one cache) on every
// transport delivered on ch, echoing until each conn ends.
func echoServer(t *testing.T, ch <-chan net.Conn, cache *SessionCache, psk []byte) {
	t.Helper()
	seed := uint64(1000)
	go func() {
		for tr := range ch {
			seed++
			cfg := Config{Profile: ProfileEmbedded, PSK: psk,
				Rand: prng.NewXorshift(seed), Cache: cache}
			go func(tr net.Conn) {
				conn, err := BindServer(tr, cfg)
				if err != nil {
					tr.Close()
					return
				}
				buf := make([]byte, 4096)
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
			}(tr)
		}
	}()
}

func TestDialWithRetrySucceedsAfterFailures(t *testing.T) {
	psk := []byte("retry-psk")
	cache := NewSessionCache(4)
	srvCh := make(chan net.Conn, 8)
	echoServer(t, srvCh, cache, psk)

	fails := 3
	var slept []time.Duration
	d := &Dialer{
		Dial: func() (io.ReadWriteCloser, error) {
			if fails > 0 {
				fails--
				return nil, errors.New("backend down")
			}
			ct, st := net.Pipe()
			srvCh <- st
			return ct, nil
		},
		Config: Config{Profile: ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(7)},
		Policy: RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond},
		Sleep:  func(d time.Duration) { slept = append(slept, d) },
	}
	conn, tr, err := d.DialWithRetry()
	if err != nil {
		t.Fatalf("DialWithRetry: %v", err)
	}
	defer tr.Close()
	defer conn.Close()
	st := d.Stats()
	if st.Attempts != 4 || st.DialFailures != 3 || st.FullHandshakes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
	// Backoff doubles from base, with ±20% jitter around each step.
	for i, base := range []time.Duration{10, 20, 40} {
		base *= time.Millisecond
		lo, hi := base*80/100, base*120/100
		if slept[i] < lo || slept[i] > hi {
			t.Errorf("backoff %d = %v, want within [%v, %v]", i, slept[i], lo, hi)
		}
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _ := conn.Read(buf); string(buf[:n]) != "ping" {
		t.Errorf("echo = %q", buf[:n])
	}
}

func TestDialWithRetryResumesSession(t *testing.T) {
	psk := []byte("resume-psk")
	cache := NewSessionCache(4)
	srvCh := make(chan net.Conn, 8)
	echoServer(t, srvCh, cache, psk)

	d := &Dialer{
		Dial: func() (io.ReadWriteCloser, error) {
			ct, st := net.Pipe()
			srvCh <- st
			return ct, nil
		},
		Config: Config{Profile: ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(7)},
		Sleep:  func(time.Duration) {},
	}
	// First connection: a full handshake that earns a session.
	c1, tr1, err := d.DialWithRetry()
	if err != nil {
		t.Fatal(err)
	}
	if c1.Resumed() {
		t.Error("first connection claims resumption")
	}
	if d.Session() == nil {
		t.Fatal("no session cached after full handshake")
	}
	c1.Close()
	tr1.Close()

	// Second: the cached session rides the ClientHello and resumes.
	c2, tr2, err := d.DialWithRetry()
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	defer c2.Close()
	if !c2.Resumed() {
		t.Error("reconnect did not resume the cached session")
	}
	st := d.Stats()
	if st.FullHandshakes != 1 || st.Resumptions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDialWithRetryFallsBackWhenCacheEvicted(t *testing.T) {
	psk := []byte("evict-psk")
	cache := NewSessionCache(4)
	srvCh := make(chan net.Conn, 8)
	echoServer(t, srvCh, cache, psk)

	d := &Dialer{
		Dial: func() (io.ReadWriteCloser, error) {
			ct, st := net.Pipe()
			srvCh <- st
			return ct, nil
		},
		Config: Config{Profile: ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(9)},
		Sleep:  func(time.Duration) {},
	}
	c1, tr1, err := d.DialWithRetry()
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	tr1.Close()
	sess := d.Session()
	if sess == nil {
		t.Fatal("no session cached")
	}
	// The server's cache loses the entry (reboot, eviction pressure):
	// the client still offers it, and the handshake falls back to full.
	cache.Remove(sess.ID)
	c2, tr2, err := d.DialWithRetry()
	if err != nil {
		t.Fatalf("dial after eviction: %v", err)
	}
	defer tr2.Close()
	defer c2.Close()
	if c2.Resumed() {
		t.Error("resumed against an evicted cache entry")
	}
	st := d.Stats()
	if st.FullHandshakes != 2 || st.Resumptions != 0 {
		t.Errorf("stats = %+v", st)
	}
	if d.Session() == nil {
		t.Error("fallback handshake did not refresh the cached session")
	}
}

func TestDialWithRetryExhaustsAttempts(t *testing.T) {
	d := &Dialer{
		Dial:   func() (io.ReadWriteCloser, error) { return nil, errors.New("nope") },
		Config: Config{Profile: ProfileEmbedded, PSK: []byte("k"), Rand: prng.NewXorshift(1)},
		Policy: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Sleep:  func(time.Duration) {},
	}
	_, _, err := d.DialWithRetry()
	if err == nil {
		t.Fatal("dial succeeded against a dead backend")
	}
	if st := d.Stats(); st.Attempts != 3 || st.DialFailures != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHandshakeTimeout(t *testing.T) {
	ct, st := net.Pipe()
	defer st.Close()
	defer ct.Close()
	// The server never responds: a half-open peer.
	cfg := Config{Profile: ProfileEmbedded, PSK: []byte("k"),
		Rand: prng.NewXorshift(1), HandshakeTimeout: 80 * time.Millisecond}
	go func() { // swallow the ClientHello, then go silent
		buf := make([]byte, 256)
		st.Read(buf)
	}()
	start := time.Now()
	_, err := BindClient(ct, cfg)
	if !errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("err = %v, want ErrHandshakeTimeout", err)
	}
	if errors.Is(err, ErrHandshake) == false {
		t.Errorf("timeout error should still be a handshake failure: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("timeout took %v", d)
	}
}

func TestRemoteAlertSurfacesTyped(t *testing.T) {
	cliCfg, srvCfg := embeddedConfigs()
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	// Feed the server garbage that MACs wrong; it must alert the client.
	rec, err := cli.appendSealed(nil, recData, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	rec[len(rec)-1] ^= 0xff
	srvErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := srv.Read(buf)
		srvErr <- err
	}()
	// The client must already be reading: net.Pipe is synchronous, so
	// the server's outgoing alert needs a live reader on the other end.
	cliErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := cli.Read(buf)
		cliErr <- err
	}()
	if _, err := cli.tr.Write(rec); err != nil {
		t.Fatal(err)
	}
	// Server side: a local AlertError wrapping ErrBadMAC.
	err = <-srvErr
	var ae *AlertError
	if !errors.As(err, &ae) || ae.Remote || ae.Code != AlertBadRecordMAC {
		t.Fatalf("server error = %v, want local bad_record_mac alert", err)
	}
	if !errors.Is(err, ErrBadMAC) {
		t.Errorf("alert does not unwrap to ErrBadMAC: %v", err)
	}
	// Client side: the peer's alert arrives as a remote AlertError.
	err = <-cliErr
	if !errors.As(err, &ae) || !ae.Remote || ae.Code != AlertBadRecordMAC {
		t.Fatalf("client error = %v, want remote bad_record_mac alert", err)
	}
	buf := make([]byte, 16)
	// The connection is terminally dead on both sides.
	if _, err := srv.Write([]byte("y")); err == nil {
		t.Error("write succeeded on a dead connection")
	}
	if _, err := cli.Read(buf); err == nil {
		t.Error("read succeeded on a dead connection")
	}
}

func TestCloseWriteHalfClose(t *testing.T) {
	cliCfg, srvCfg := embeddedConfigs()
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Server reads the request to EOF, then still answers.
		buf := make([]byte, 64)
		var req []byte
		for {
			n, err := srv.Read(buf)
			req = append(req, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
		}
		if string(req) != "request" {
			t.Errorf("request = %q", req)
		}
		if _, err := srv.Write([]byte("response")); err != nil {
			t.Errorf("server write after client EOF: %v", err)
		}
		srv.Close()
	}()
	if _, err := cli.Write([]byte("request")); err != nil {
		t.Fatal(err)
	}
	if err := cli.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write([]byte("more")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after CloseWrite = %v, want ErrClosed", err)
	}
	// Read to EOF so the server's own close_notify is consumed (the
	// synchronous pipe would otherwise wedge srv.Close).
	var resp []byte
	buf := make([]byte, 64)
	for {
		n, err := cli.Read(buf)
		resp = append(resp, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("client read after half-close: %v", err)
		}
	}
	if string(resp) != "response" {
		t.Errorf("response = %q", resp)
	}
	<-done
}
