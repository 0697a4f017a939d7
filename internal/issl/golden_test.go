package issl

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/prng"
)

// Wire goldens: seeded exchanges whose byte streams are pinned by
// hash, one per direction. Each exchange is a handshake, one data
// record each way and a close_notify from both ends over a buffered
// in-memory duplex, so every byte either role writes is a pure
// function of the seeds. A refactor of the handshake or record writer
// that changes any byte on the wire fails here.

// memPipe is one direction of the duplex: writes never block, reads
// block until bytes or Close arrive, and every byte written is also
// kept in wire.
type memPipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte // written, not yet read
	wire   []byte // everything written
	closed bool
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *memPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, io.ErrClosedPipe
	}
	p.buf = append(p.buf, b...)
	p.wire = append(p.wire, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *memPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

func (p *memPipe) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *memPipe) written() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wire
}

type memEnd struct{ r, w *memPipe }

func (e memEnd) Read(b []byte) (int, error)  { return e.r.Read(b) }
func (e memEnd) Write(b []byte) (int, error) { return e.w.Write(b) }

// goldenExchange runs one exchange and returns the client→server and
// server→client byte streams and the client's Conn.
func goldenExchange(t testing.TB, cliCfg, srvCfg Config) (c2s, s2c []byte, cli *Conn) {
	t.Helper()
	up, down := newMemPipe(), newMemPipe()
	defer up.Close()
	defer down.Close()
	srvErr := make(chan error, 1)
	go func() {
		srv, err := BindServer(memEnd{r: up, w: down}, srvCfg)
		if err == nil {
			buf := make([]byte, 64)
			var n int
			if n, err = srv.Read(buf); err == nil {
				_, err = srv.Write(append([]byte("pong:"), buf[:n]...))
			}
			if err == nil {
				err = srv.Close()
			}
		}
		srvErr <- err
	}()
	cli, err := BindClient(memEnd{r: down, w: up}, cliCfg)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if _, err := cli.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := cli.Read(buf)
	if err != nil || string(buf[:n]) != "pong:ping" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	return up.written(), down.written(), cli
}

// goldenTickets is a ticket store whose tickets are a function of the
// seed alone: pinned clock, deterministic IVs.
func goldenTickets(t testing.TB) *TicketKeyStore {
	t.Helper()
	ks, err := NewTicketKeyStore([]byte("golden ticket material"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ks.SetNow(func() time.Time { return time.Unix(1_700_000_000, 0) })
	ks.SetRand(prng.NewXorshift(0x71c))
	return ks
}

func TestWireGolden(t *testing.T) {
	psk := []byte("rmc2000-preshared-master-secret!")
	unixCli := func(seed uint64, resume *Session) Config {
		return Config{Profile: ProfileUnix, Rand: prng.NewXorshift(seed), Resume: resume}
	}
	unixSrv := func(seed uint64, cache *SessionCache, tk *TicketKeyStore) Config {
		return Config{Profile: ProfileUnix, ServerKey: serverKey(t), Rand: prng.NewXorshift(seed),
			Cache: cache, TicketKeys: tk}
	}
	embCli := func(seed uint64, resume *Session) Config {
		return Config{Profile: ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(seed), Resume: resume}
	}
	embSrv := func(seed uint64, cache *SessionCache) Config {
		return Config{Profile: ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(seed), Cache: cache}
	}

	type streams struct{ c2s, s2c string }
	got := map[string]streams{}
	record := func(name string, cliCfg, srvCfg Config, wantResumed bool) *Session {
		c2s, s2c, cli := goldenExchange(t, cliCfg, srvCfg)
		if cli.Resumed() != wantResumed {
			t.Fatalf("%s: resumed = %v, want %v", name, cli.Resumed(), wantResumed)
		}
		sess := cli.Session()
		if sess == nil {
			t.Fatalf("%s: no session issued", name)
		}
		got[name] = streams{sha256Hex(c2s), sha256Hex(s2c)}
		return sess
	}

	// Unix full handshake with a session cache, in a non-AES geometry
	// (256-bit key, 192-bit block), then a resumption by session ID.
	cache := NewSessionCache(8)
	cli := unixCli(0x101, nil)
	cli.KeyBits, cli.BlockBits = 256, 192
	sess := record("unix-full-cache", cli, unixSrv(0x102, cache, nil), false)
	record("unix-resume-sid", unixCli(0x103, sess), unixSrv(0x104, cache, nil), true)

	// Unix resumed by ticket: a full handshake with tickets and no
	// cache issues one, and the next connection offers only it.
	tk := goldenTickets(t)
	sess = record("unix-full-ticket", unixCli(0x105, nil), unixSrv(0x106, nil, tk), false)
	record("unix-resume-ticket", unixCli(0x107, sess), unixSrv(0x108, nil, tk), true)

	// Embedded full and resumed.
	embCache := NewSessionCache(8)
	sess = record("embedded-full", embCli(0x109, nil), embSrv(0x10a, embCache), false)
	record("embedded-resume", embCli(0x10b, sess), embSrv(0x10c, embCache), true)

	// Recorded from the three-framer, four-tail code this package had
	// before its single record writer: a mismatch is a wire-format
	// change, not a golden to regenerate.
	want := map[string]streams{
		"unix-full-cache": {
			"380161ebe1cfa3f1201e143bfab8839b37da2e7dfb6e3ddd44e13cc2dc919d40",
			"c299a125adb098fe8c7dd167e8253ed1cc5117d1b249f2695f4708f81419243e"},
		"unix-resume-sid": {
			"fc4e89265d942adbca9dc414ca574507261e54c3fe73c07be44c82172043f5d1",
			"3fd5e122ff22a3ed68f4951a657ea49cd5049b88b1c1cea218918d4029faf3a4"},
		"unix-full-ticket": {
			"42e52573f2fbfc59c7062ba19307a110b7ed7ce19e5099fb9cca02619685d82f",
			"bd814c1e2c12ea3ee1e762fb81c74cec4879f1766a1e99076efb9adf59611956"},
		"unix-resume-ticket": {
			"6e6714446b9b80c5160bad2700bbb61b980f450804cd00ecaf634b09ffbcdb27",
			"5145475e693e909bf4333000ebdad591c1c16dbc07a638ed16a399af0c1719c3"},
		"embedded-full": {
			"ec4f8d3538be30c77eab9eb61f9025ca3bab78ea953e21d1a90ad30164f5ddb5",
			"3f0d5b1dde5f1d9bd411e86c1c222a9c621ae2b64c0c0717200073192c3912b6"},
		"embedded-resume": {
			"70acbf6f9585ab3b861f6e4afa66f904ba429d3383e7c1714bdf3e397b02c991",
			"69bc0cb7f65ab3b9b6f26cf35e995b089656ebea5dceedd6d67572ee06be8060"},
	}
	if len(got) != len(want) {
		t.Errorf("ran %d exchanges, %d goldens", len(got), len(want))
	}
	for name, s := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden recorded; got c2s %s s2c %s", name, s.c2s, s.s2c)
			continue
		}
		if s != w {
			t.Errorf("%s: wire changed:\n got c2s %s s2c %s\nwant c2s %s s2c %s", name, s.c2s, s.s2c, w.c2s, w.s2c)
		}
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
