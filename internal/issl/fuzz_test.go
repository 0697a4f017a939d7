package issl

// Native fuzz targets for the record layer and the handshake. Under
// plain `go test` these run seed-only (f.Add plus testdata/fuzz
// corpus) as a fast regression; CI additionally runs a short -fuzz
// smoke. Invariants: the record reader never panics and never trusts a
// length it has not read, forged sealed bodies are rejected,
// seal→open is identity, and a handshake over any flight returns.

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/bignum"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
)

// fuzzTransport feeds a fixed byte string to the record reader and
// swallows writes.
type fuzzTransport struct{ r io.Reader }

func (f *fuzzTransport) Read(p []byte) (int, error)  { return f.r.Read(p) }
func (f *fuzzTransport) Write(p []byte) (int, error) { return len(p), nil }

// fuzzKeyedConn builds a Conn with established directional keys but no
// handshake, so the sealed-record path can be exercised directly.
func fuzzKeyedConn(t testing.TB) *Conn {
	t.Helper()
	key := bytes.Repeat([]byte{0x42}, 16)
	c := &Conn{rng: prng.NewXorshift(7)}
	if err := c.wAES.Init(key, aes.Size128); err != nil {
		t.Fatal(err)
	}
	if err := c.rAES.Init(key, aes.Size128); err != nil {
		t.Fatal(err)
	}
	c.wCipher, c.rCipher = &c.wAES, &c.rAES
	c.wHMAC.Init(fuzzMACKey)
	c.rHMAC.Init(fuzzMACKey)
	return c
}

// fuzzMACKey is both directions' MAC key in fuzzKeyedConn.
var fuzzMACKey = bytes.Repeat([]byte{0x69}, 20)

// onPath runs f with the record kernels on the hardware path (where
// this CPU has it) or on the portable path.
func onPath(hw bool, f func()) {
	defer aes.SetHardware(aes.SetHardware(hw))
	defer sha1.SetHardware(sha1.SetHardware(hw))
	f()
}

func FuzzISSLRecord(f *testing.F) {
	f.Add([]byte{recHandshake, protocolVersion, 0x00, 0x03, 0x01, 0x02, 0x03})
	f.Add([]byte{recClose, protocolVersion, 0x00, 0x00})
	f.Add([]byte{recData, protocolVersion, 0xff, 0xff}) // 64KiB length, no body
	f.Add([]byte{recHandshake, 0x30, 0x00, 0x01, 0xaa}) // wrong version
	f.Add([]byte{recHandshake, protocolVersion, 0x00})  // truncated header
	f.Add(bytes.Repeat([]byte{recData, protocolVersion, 0x00, 0x01, 0x77}, 4))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Stream parse: read records until error/EOF. Must not panic,
		// and every delivered body must match its declared length.
		c := newConn(&fuzzTransport{r: bytes.NewReader(data)}, Config{})
		for i := 0; i < 8; i++ {
			_, body, err := c.readRecord()
			if err != nil {
				break
			}
			if len(body) > 0xffff {
				t.Fatalf("record body %d bytes exceeds wire maximum", len(body))
			}
		}

		// Authenticity: arbitrary bytes must never open as a sealed
		// record — the fuzzer cannot forge an HMAC-SHA1 tag.
		rc := fuzzKeyedConn(t)
		if pt, err := rc.openRecord(recData, data); err == nil {
			t.Fatalf("openRecord accepted %d unauthenticated bytes -> %x", len(data), pt)
		}

		// Round-trip: treating the input as plaintext, seal then open
		// must be the identity.
		wc, rc2 := fuzzKeyedConn(t), fuzzKeyedConn(t)
		rec, err := wc.appendSealed(nil, recData, data)
		if err != nil {
			t.Fatalf("appendSealed(%d bytes): %v", len(data), err)
		}
		sealed := rec[recordHeaderLen:]
		pt, err := rc2.openRecord(recData, sealed)
		if err != nil {
			t.Fatalf("openRecord rejected our own sealed record: %v", err)
		}
		if !bytes.Equal(pt, data) {
			t.Fatalf("seal/open round-trip corrupted %d bytes", len(data))
		}
		// Cross-path: sealing on the portable kernels gives the same
		// bytes as on the hardware ones (same keys, same IV stream),
		// and each path opens the other's record.
		var sealedOn [2][]byte // hardware, portable
		for i, hw := range []bool{true, false} {
			onPath(hw, func() {
				r, err := fuzzKeyedConn(t).appendSealed(nil, recData, data)
				if err != nil {
					t.Fatalf("appendSealed(%d bytes, hw %v): %v", len(data), hw, err)
				}
				sealedOn[i] = r[recordHeaderLen:]
			})
		}
		if !bytes.Equal(sealedOn[0], sealedOn[1]) {
			t.Fatalf("%d bytes: hardware and portable kernels sealed different records", len(data))
		}
		for i, hw := range []bool{false, true} { // open the other path's record
			onPath(hw, func() {
				pt, err := fuzzKeyedConn(t).openRecord(recData, bytes.Clone(sealedOn[i]))
				if err != nil || !bytes.Equal(pt, data) {
					t.Fatalf("%d bytes: opening on hw=%v: err %v, plaintext match %v", len(data), hw, err, bytes.Equal(pt, data))
				}
			})
		}

		// A single flipped ciphertext bit must flip the verdict too.
		if len(sealed) > 0 {
			sealed[len(sealed)/2] ^= 0x01
			if _, err := fuzzKeyedConn(t).openRecord(recData, sealed); err == nil {
				t.Fatal("openRecord accepted a tampered sealed record")
			}
		}
	})
}

// handshakeFuzzConfigs builds fresh configs for the fuzzed handshake
// endpoints: a Unix server with a session cache and tickets, and an
// Embedded server and client. The corpus is seeded with genuine
// flights between peers built from these same configs, so a replayed
// flight runs the handshake to completion.
func handshakeFuzzConfigs(tb testing.TB) (unixCli, unixSrv, embCli, embSrv Config) {
	psk := []byte("fuzz-handshake-psk-0123456789abc")
	unixCli = Config{Profile: ProfileUnix, Rand: prng.NewXorshift(0xf1)}
	unixSrv = Config{Profile: ProfileUnix, ServerKey: serverKey(tb), Rand: prng.NewXorshift(0xf2),
		Cache: NewSessionCache(4), TicketKeys: goldenTickets(tb)}
	embCli = Config{Profile: ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(0xf3)}
	embSrv = Config{Profile: ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(0xf4)}
	return
}

// FuzzHandshake feeds arbitrary bytes as the peer's whole flight to
// BindServer (Unix with cache and tickets, and Embedded) and to
// BindClient (Unix and Embedded). Invariants: no panic, and every bind
// returns within the deadline once the flight runs out. The Unix
// client computes with whatever RSA key the ServerHello names, so it
// relies on parsePublicKey's bound on that key.
func FuzzHandshake(f *testing.F) {
	uc, us, ec, es := handshakeFuzzConfigs(f)
	unixFlight, unixServerFlight, _ := goldenExchange(f, uc, us)
	embFlight, embServerFlight, _ := goldenExchange(f, ec, es)
	f.Add(unixFlight)
	f.Add(unixServerFlight)
	f.Add(embFlight)
	f.Add(embServerFlight)
	f.Add([]byte{recHandshake, protocolVersion, 0xff, 0xff}) // 64 KiB length, no body
	f.Add(append([]byte{recHandshake, protocolVersion, 0xff, 0xff}, embFlight...))

	f.Fuzz(func(t *testing.T, flight []byte) {
		uc, us, ec, es := handshakeFuzzConfigs(t)
		endpoints := []struct {
			name string
			bind func(io.ReadWriter, Config) (*Conn, error)
			cfg  Config
		}{
			{"unix server", BindServer, us},
			{"unix client", BindClient, uc},
			{"embedded server", BindServer, es},
			{"embedded client", BindClient, ec},
		}
		for _, ep := range endpoints {
			done := make(chan struct{})
			go func() {
				defer close(done)
				ep.bind(&fuzzTransport{r: bytes.NewReader(flight)}, ep.cfg)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: handshake over a %d-byte flight did not return", ep.name, len(flight))
			}
		}
	})
}

// TestClientRejectsHostileServerKey replays a genuine Unix ServerHello
// with its public key swapped for one outside crypto/rsa's public-key
// rule. The client must fail with ErrHandshake before any RSA work: an
// 8 KiB modulus under an 8 KiB exponent would otherwise cost it
// minutes of EncryptPKCS1.
func TestClientRejectsHostileServerKey(t *testing.T) {
	uc, us, _, _ := handshakeFuzzConfigs(t)
	_, s2c, _ := goldenExchange(t, uc, us)
	n := int(s2c[2])<<8 | int(s2c[3])
	hello := s2c[recordHeaderLen : recordHeaderLen+n]
	prefix := hello[:len(hello)-len(appendPublicKey(nil, &us.ServerKey.PublicKey))]

	ones := func(n int) bignum.Int { return bignum.FromBytes(bytes.Repeat([]byte{0xff}, n)) }
	e65537 := bignum.FromUint64(65537)
	for _, tc := range []struct {
		name string
		key  rsa.PublicKey
	}{
		{"8 KiB modulus", rsa.PublicKey{N: ones(8192), E: e65537}},
		{"8 KiB modulus and exponent", rsa.PublicKey{N: ones(8192), E: ones(8192)}},
		{"4097-bit modulus", rsa.PublicKey{N: bignum.One().Shl(4096).Add(bignum.One()), E: e65537}},
		{"even modulus", rsa.PublicKey{N: ones(128).Sub(bignum.One()), E: e65537}},
		{"exponent 1", rsa.PublicKey{N: ones(128), E: bignum.One()}},
		{"even exponent", rsa.PublicKey{N: ones(128), E: bignum.FromUint64(65536)}},
		{"exponent 2^31+1", rsa.PublicKey{N: ones(128), E: bignum.FromUint64(1<<31 + 1)}},
	} {
		body := append(append([]byte(nil), prefix...), appendPublicKey(nil, &tc.key)...)
		flight := append([]byte{recHandshake, protocolVersion, byte(len(body) >> 8), byte(len(body))}, body...)
		cfg, _, _, _ := handshakeFuzzConfigs(t)
		start := time.Now()
		_, err := BindClient(&fuzzTransport{r: bytes.NewReader(flight)}, cfg)
		if !errors.Is(err, ErrHandshake) {
			t.Errorf("%s: err = %v, want ErrHandshake", tc.name, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: rejection took %v", tc.name, d)
		}
	}

	// The bounds themselves are legal: a 4096-bit odd modulus with the
	// largest exponent, and the smallest exponent.
	for _, e := range []bignum.Int{bignum.FromUint64(1<<31 - 1), bignum.FromUint64(3)} {
		key := rsa.PublicKey{N: bignum.One().Shl(4095).Add(bignum.One()), E: e}
		if _, err := parsePublicKey(appendPublicKey(nil, &key)); err != nil {
			t.Errorf("4096-bit modulus, e=%s: %v", e, err)
		}
	}
}
