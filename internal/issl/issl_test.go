package issl

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
	"repro/internal/netsim"
	"repro/internal/tcpip"
)

// testServerKey is generated once; RSA keygen dominates test time otherwise.
var (
	testServerKeyOnce sync.Once
	testServerKey     *rsa.PrivateKey
)

func serverKey(t testing.TB) *rsa.PrivateKey {
	testServerKeyOnce.Do(func() {
		k, err := rsa.GenerateKey(prng.NewXorshift(0x5eed), 512)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		testServerKey = k
	})
	return testServerKey
}

// pipePair builds a synchronous in-memory transport. The returned
// net.Conns can be Closed to unblock a peer waiting on a reply that
// will never come (failed-handshake tests need this).
func pipePair() (net.Conn, net.Conn) {
	return net.Pipe()
}

// handshakePair runs both handshakes concurrently and returns the conns.
func handshakePair(t *testing.T, cliCfg, srvCfg Config) (*Conn, *Conn) {
	t.Helper()
	ct, st := pipePair()
	type res struct {
		c   *Conn
		err error
	}
	srvCh := make(chan res, 1)
	go func() {
		c, err := BindServer(st, srvCfg)
		srvCh <- res{c, err}
	}()
	cli, cliErr := BindClient(ct, cliCfg)
	srv := <-srvCh
	if cliErr != nil {
		t.Fatalf("client handshake: %v", cliErr)
	}
	if srv.err != nil {
		t.Fatalf("server handshake: %v", srv.err)
	}
	return cli, srv.c
}

func unixConfigs(t *testing.T, keyBits, blockBits int) (Config, Config) {
	key := serverKey(t)
	cli := Config{Profile: ProfileUnix, keyBits: keyBits, blockBits: blockBits,
		Rand: prng.NewXorshift(11)}
	srv := Config{Profile: ProfileUnix, ServerKey: key, Rand: prng.NewXorshift(22)}
	return cli, srv
}

func embeddedConfigs() (Config, Config) {
	psk := []byte("rmc2000-preshared-master-secret!")
	cli := Config{Profile: ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(33)}
	srv := Config{Profile: ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(44)}
	return cli, srv
}

func TestUnixHandshakeAndEcho(t *testing.T) {
	cliCfg, srvCfg := unixConfigs(t, 128, 128)
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	msg := []byte("secure hello across the redirector")
	go func() {
		buf := make([]byte, 256)
		n, err := srv.Read(buf)
		if err != nil {
			return
		}
		srv.Write(buf[:n])
	}()
	if _, err := cli.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := cli.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Errorf("echo = %q", buf[:n])
	}
}

func TestAllUnixCipherGeometries(t *testing.T) {
	for _, kb := range []int{128, 192, 256} {
		for _, bb := range []int{128, 192, 256} {
			cliCfg, srvCfg := unixConfigs(t, kb, bb)
			cli, srv := handshakePair(t, cliCfg, srvCfg)
			gotK, gotB := cli.CipherInfo()
			if gotK != kb || gotB != bb {
				t.Errorf("negotiated %d/%d, want %d/%d", gotK, gotB, kb, bb)
			}
			msg := []byte("geometry test")
			go srv.Write(msg)
			buf := make([]byte, 64)
			n, err := cli.Read(buf)
			if err != nil || !bytes.Equal(buf[:n], msg) {
				t.Errorf("%d/%d: read %q err %v", kb, bb, buf[:n], err)
			}
		}
	}
}

func TestEmbeddedHandshakeAndTransfer(t *testing.T) {
	cliCfg, srvCfg := embeddedConfigs()
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	if kb, bb := srv.CipherInfo(); kb != 128 || bb != 128 {
		t.Errorf("embedded negotiated %d/%d", kb, bb)
	}
	// Transfer larger than one embedded record to exercise fragmentation.
	want := bytes.Repeat([]byte("0123456789abcdef"), 300) // 4800 bytes
	go func() {
		cli.Write(want)
		cli.Close()
	}()
	var got bytes.Buffer
	buf := make([]byte, 2048)
	for {
		n, err := srv.Read(buf)
		got.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("got %d bytes, want %d", got.Len(), len(want))
	}
	_, _, recIn, _ := srv.Stats()
	if recIn < 4 {
		t.Errorf("embedded transfer used %d records; expected fragmentation to >=5", recIn)
	}
}

func TestEmbeddedRejectsBigCipher(t *testing.T) {
	cfg := Config{Profile: ProfileEmbedded, keyBits: 256, PSK: []byte("k"), Rand: prng.NewXorshift(1)}
	if err := cfg.validate(false); err == nil {
		t.Error("embedded profile accepted 256-bit key")
	}
	cfg2 := Config{Profile: ProfileEmbedded, Rand: prng.NewXorshift(1)}
	if err := cfg2.validate(false); err == nil {
		t.Error("embedded profile accepted missing PSK")
	}
}

func TestUnixServerRequiresKey(t *testing.T) {
	cfg := Config{Profile: ProfileUnix, Rand: prng.NewXorshift(1)}
	if err := cfg.validate(true); err == nil {
		t.Error("unix server without RSA key accepted")
	}
	if err := cfg.validate(false); err != nil {
		t.Errorf("unix client without key rejected: %v", err)
	}
}

func TestNilRandRejected(t *testing.T) {
	cfg := Config{Profile: ProfileUnix}
	if err := cfg.validate(false); err == nil {
		t.Error("nil Rand accepted")
	}
}

func TestWrongPSKFailsHandshake(t *testing.T) {
	cliCfg := Config{Profile: ProfileEmbedded, PSK: []byte("alpha"), Rand: prng.NewXorshift(1)}
	srvCfg := Config{Profile: ProfileEmbedded, PSK: []byte("bravo"), Rand: prng.NewXorshift(2)}
	ct, st := pipePair()
	srvErr := make(chan error, 1)
	go func() {
		_, err := BindServer(st, srvCfg)
		st.Close() // unblock a client waiting for a reply we won't send
		srvErr <- err
	}()
	_, cliErr := BindClient(ct, cliCfg)
	if err := <-srvErr; err == nil {
		t.Error("server completed handshake with mismatched PSK")
	}
	if cliErr == nil {
		t.Error("client completed handshake with mismatched PSK")
	}
}

func TestProfileMismatchDetected(t *testing.T) {
	key := serverKey(t)
	cliCfg := Config{Profile: ProfileEmbedded, PSK: []byte("k"), Rand: prng.NewXorshift(1)}
	srvCfg := Config{Profile: ProfileUnix, ServerKey: key, Rand: prng.NewXorshift(2)}
	ct, st := pipePair()
	srvErr := make(chan error, 1)
	go func() {
		_, err := BindServer(st, srvCfg)
		st.Close()
		srvErr <- err
	}()
	_, cliErr := BindClient(ct, cliCfg)
	if err := <-srvErr; !errors.Is(err, ErrProfileMismatch) {
		t.Errorf("server error = %v, want profile mismatch", err)
	}
	if cliErr == nil {
		t.Error("client completed a mismatched handshake")
	}
}

// tamperPipe flips a bit in the nth record flowing a->b.
type tamperPipe struct {
	io.ReadWriter
	tamperAt  int
	count     int
	byteIndex int
}

func (tp *tamperPipe) Write(p []byte) (int, error) {
	tp.count++
	if tp.count == tp.tamperAt {
		q := append([]byte(nil), p...)
		idx := tp.byteIndex
		if idx >= len(q) {
			idx = len(q) - 1
		}
		q[idx] ^= 0x80
		return tp.ReadWriter.Write(q)
	}
	return tp.ReadWriter.Write(p)
}

func TestTamperedDataRecordRejected(t *testing.T) {
	cliCfg, srvCfg := embeddedConfigs()
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	// Manually corrupt a sealed record: build it, flip a byte, feed it.
	rec, err := cli.appendSealed(nil, recData, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	rec[len(rec)/2] ^= 0x01
	go cli.tr.Write(rec)
	buf := make([]byte, 64)
	if _, err := srv.Read(buf); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered record error = %v, want ErrBadMAC", err)
	}
}

func TestReplayedRecordRejected(t *testing.T) {
	cliCfg, srvCfg := embeddedConfigs()
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	rec, err := cli.appendSealed(nil, recData, []byte("pay me once"))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		cli.tr.Write(rec)
		cli.tr.Write(rec) // replay
	}()
	buf := make([]byte, 64)
	if _, err := srv.Read(buf); err != nil {
		t.Fatalf("first delivery: %v", err)
	}
	if _, err := srv.Read(buf); !errors.Is(err, ErrBadMAC) {
		t.Errorf("replay error = %v, want ErrBadMAC (sequence-bound MAC)", err)
	}
}

func TestCloseNotify(t *testing.T) {
	cliCfg, srvCfg := embeddedConfigs()
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	closeErr := make(chan error, 1)
	go func() { closeErr <- cli.Close() }() // pipe is synchronous; reader below
	buf := make([]byte, 8)
	if _, err := srv.Read(buf); err != io.EOF {
		t.Errorf("read after close_notify = %v, want EOF", err)
	}
	if err := <-closeErr; err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := cli.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close = %v, want ErrClosed", err)
	}
	if err := cli.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestStatsCount(t *testing.T) {
	cliCfg, srvCfg := embeddedConfigs()
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	wrote := make(chan struct{})
	go func() {
		cli.Write(make([]byte, 2500)) // 3 embedded records
		close(wrote)
	}()
	total := 0
	buf := make([]byte, 4096)
	for total < 2500 {
		n, err := srv.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	in, _, recIn, _ := srv.Stats()
	if in != 2500 {
		t.Errorf("bytesIn = %d", in)
	}
	if recIn != 3 {
		t.Errorf("recordsIn = %d, want 3", recIn)
	}
	<-wrote
	_, out, _, recOut := cli.Stats()
	if out != 2500 || recOut != 3 {
		t.Errorf("client out = %d bytes / %d records", out, recOut)
	}
}

// TestOverSimulatedTCP runs the full stack: issl over the tcpip TCB
// transport over the netsim wire — the configuration every experiment
// uses.
func TestOverSimulatedTCP(t *testing.T) {
	hub := netsim.NewHub()
	defer hub.Close()
	s1, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := tcpip.NewStack(hub, tcpip.IP4(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	l, err := s2.Listen(443, 1)
	if err != nil {
		t.Fatal(err)
	}
	cliCfg, srvCfg := embeddedConfigs()
	result := make(chan error, 1)
	go func() {
		tcb, err := l.Accept(5 * time.Second)
		if err != nil {
			result <- err
			return
		}
		conn, err := BindServer(tcb, srvCfg)
		if err != nil {
			result <- err
			return
		}
		buf := make([]byte, 256)
		n, err := conn.Read(buf)
		if err != nil {
			result <- err
			return
		}
		_, err = conn.Write(bytes.ToUpper(buf[:n]))
		result <- err
	}()
	tcb, err := s1.Connect(s2.Addr(), 443, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := BindClient(tcb, cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "OVER THE WIRE" {
		t.Errorf("got %q", buf[:n])
	}
	if err := <-result; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestRecordLayerConstEq(t *testing.T) {
	if !constEq([]byte{1, 2, 3}, []byte{1, 2, 3}) {
		t.Error("equal slices reported unequal")
	}
	if constEq([]byte{1, 2, 3}, []byte{1, 2, 4}) {
		t.Error("unequal slices reported equal")
	}
	if constEq([]byte{1, 2}, []byte{1, 2, 3}) {
		t.Error("different lengths reported equal")
	}
}

func TestExpandDeterministicAndSized(t *testing.T) {
	m := []byte("master secret")
	expand := func(master []byte, label string, n int) []byte {
		var c Conn
		c.hs.prf.Init(master)
		out := make([]byte, n)
		c.expand(label, out)
		return out
	}
	a := expand(m, "label", 16)
	b := expand(m, "label", 16)
	if !bytes.Equal(a, b) {
		t.Error("expand not deterministic")
	}
	if len(expand(m, "label", 33)) != 33 {
		t.Error("expand wrong length")
	}
	if bytes.Equal(expand(m, "l1", 16), expand(m, "l2", 16)) {
		t.Error("different labels gave same key material")
	}
	// The schedule is HMAC(master, label || counter) blocks.
	b0 := sha1.HMAC(m, []byte("label\x00"))
	b1 := sha1.HMAC(m, []byte("label\x01"))
	if want := append(b0[:], b1[:13]...); !bytes.Equal(expand(m, "label", 33), want) {
		t.Error("expand differs from HMAC(master, label || counter)")
	}
}

// Property: arbitrary write sizes and read chunkings deliver the exact
// byte stream (record fragmentation is invisible to the application).
func TestQuickStreamIntegrity(t *testing.T) {
	f := func(chunks [][]byte, readSize uint8) bool {
		var payload []byte
		for _, c := range chunks {
			if len(c) > 3000 {
				c = c[:3000]
			}
			payload = append(payload, c...)
		}
		if len(payload) == 0 {
			return true
		}
		rs := int(readSize)%512 + 1
		cliCfg, srvCfg := embeddedConfigs()
		cli, srv := handshakePair(t, cliCfg, srvCfg)
		go func() {
			for _, c := range chunks {
				if len(c) > 3000 {
					c = c[:3000]
				}
				if len(c) == 0 {
					continue
				}
				if _, err := cli.Write(c); err != nil {
					return
				}
			}
			cli.Close()
		}()
		var got []byte
		buf := make([]byte, rs)
		for {
			n, err := srv.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				break
			}
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: ciphertext never contains the plaintext for compressible
// inputs (sanity check that encryption is actually applied on the wire).
func TestWireNeverLeaksPlaintext(t *testing.T) {
	cliCfg, srvCfg := embeddedConfigs()
	ct, st := pipePair()
	type res struct {
		c   *Conn
		err error
	}
	srvCh := make(chan res, 1)
	go func() {
		c, err := BindServer(&captureRW{ReadWriter: st}, srvCfg)
		srvCh <- res{c, err}
	}()
	capture := &captureRW{ReadWriter: ct}
	cli, err := BindClient(capture, cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-srvCh
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	secret := []byte("TOP-SECRET-PAYLOAD-0123456789-TOP-SECRET")
	go cli.Write(secret)
	buf := make([]byte, 256)
	if _, err := srv.c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(capture.sent, secret) {
		t.Error("plaintext appeared on the wire")
	}
}

// captureRW records everything written through it.
type captureRW struct {
	io.ReadWriter
	sent []byte
}

func (c *captureRW) Write(p []byte) (int, error) {
	c.sent = append(c.sent, p...)
	return c.ReadWriter.Write(p)
}
