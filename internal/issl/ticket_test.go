package issl

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/telemetry"
)

// fixedNow pins a store's clock to a settable instant.
type fixedNow struct{ t time.Time }

func (f *fixedNow) now() time.Time { return f.t }

func testStore(t *testing.T, lifetime time.Duration) (*TicketKeyStore, *fixedNow) {
	t.Helper()
	s, err := NewTicketKeyStore([]byte("cluster ticket key material"), lifetime)
	if err != nil {
		t.Fatal(err)
	}
	fn := &fixedNow{t: time.Unix(1_000_000, 0)}
	s.SetNow(fn.now)
	return s, fn
}

func testMaster() []byte {
	m := make([]byte, 20)
	for i := range m {
		m[i] = byte(i*37 + 5)
	}
	return m
}

func TestTicketSealOpenRoundTrip(t *testing.T) {
	s, _ := testStore(t, time.Hour)
	master := testMaster()
	tkt, err := s.Seal(master)
	if err != nil {
		t.Fatal(err)
	}
	if tkt[0] != TicketVersion {
		t.Errorf("version byte = %#x", tkt[0])
	}
	if len(tkt) > MaxTicketLen {
		t.Errorf("ticket length %d exceeds MaxTicketLen", len(tkt))
	}
	got, err := s.Open(tkt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, master) {
		t.Errorf("opened master %x, want %x", got, master)
	}
	// A second store built from the same material opens it too — the
	// any-instance property the cluster depends on.
	s2, err := NewTicketKeyStore([]byte("cluster ticket key material"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetNow(func() time.Time { return time.Unix(1_000_000, 0) })
	if got, err := s2.Open(tkt); err != nil || !bytes.Equal(got, master) {
		t.Errorf("sibling store Open = %x, %v", got, err)
	}
	// A store with different material must not.
	s3, err := NewTicketKeyStore([]byte("some other key"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Open(tkt); !errors.Is(err, ErrTicketKey) {
		t.Errorf("foreign store Open err = %v, want ErrTicketKey", err)
	}
}

func TestTicketExpiryBoundary(t *testing.T) {
	s, fn := testStore(t, time.Hour)
	tkt, err := s.Seal(testMaster())
	if err != nil {
		t.Fatal(err)
	}
	// Good through the expiry instant inclusive…
	fn.t = fn.t.Add(time.Hour)
	if _, err := s.Open(tkt); err != nil {
		t.Errorf("Open at expiry = %v, want ok", err)
	}
	// …rejected one second past it.
	fn.t = fn.t.Add(time.Second)
	if _, err := s.Open(tkt); !errors.Is(err, ErrTicketExpired) {
		t.Errorf("Open past expiry = %v, want ErrTicketExpired", err)
	}
	if _, err := s.Open(tkt); !errors.Is(err, ErrTicket) {
		t.Errorf("expiry rejection does not wrap ErrTicket")
	}
}

func TestTicketTamperRejected(t *testing.T) {
	s, _ := testStore(t, time.Hour)
	tkt, err := s.Seal(testMaster())
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte position in turn: every mutation must be
	// rejected cleanly (version, key ID, IV, ciphertext, MAC — each
	// lands in a different check) and none may panic.
	for i := range tkt {
		mut := append([]byte(nil), tkt...)
		mut[i] ^= 0x80
		if _, err := s.Open(mut); !errors.Is(err, ErrTicket) {
			t.Fatalf("byte %d flip: err = %v, want ErrTicket wrap", i, err)
		}
	}
	// Truncations and garbage.
	for _, bad := range [][]byte{nil, {}, tkt[:10], tkt[:len(tkt)-1], bytes.Repeat([]byte{0x41}, 300)} {
		if _, err := s.Open(bad); !errors.Is(err, ErrTicket) {
			t.Fatalf("malformed %d bytes: err = %v, want ErrTicket wrap", len(bad), err)
		}
	}
}

func TestTicketFutureVersionRejected(t *testing.T) {
	s, _ := testStore(t, time.Hour)
	tkt, err := s.Seal(testMaster())
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), tkt...)
	mut[0] = TicketVersion + 1
	if _, err := s.Open(mut); !errors.Is(err, ErrTicketVersion) {
		t.Errorf("future version err = %v, want ErrTicketVersion", err)
	}
}

// ticketEchoServer runs server handshakes with a ticket store (and an
// optional per-instance cache) on every transport delivered on ch.
func ticketEchoServer(t *testing.T, ch <-chan net.Conn, store *TicketKeyStore,
	cache *SessionCache, psk []byte, reg *telemetry.Registry) {
	t.Helper()
	seed := uint64(4000)
	go func() {
		for tr := range ch {
			seed++
			cfg := Config{Profile: ProfileEmbedded, PSK: psk,
				Rand: prng.NewXorshift(seed), Cache: cache,
				TicketKeys: store, Metrics: reg}
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

// TestTicketResumptionAcrossInstances is the tentpole property in
// miniature: a session earned on instance A resumes on instance B —
// which shares only the ticket key material, never the session cache.
func TestTicketResumptionAcrossInstances(t *testing.T) {
	psk := []byte("ticket-psk")
	material := []byte("shared fleet ticket key")
	storeA, err := NewTicketKeyStore(material, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := NewTicketKeyStore(material, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	chA := make(chan net.Conn, 4)
	chB := make(chan net.Conn, 4)
	ticketEchoServer(t, chA, storeA, NewSessionCache(4), psk, regA)
	ticketEchoServer(t, chB, storeB, NewSessionCache(4), psk, regB)

	dialTo := func(ch chan net.Conn) func() (io.ReadWriteCloser, error) {
		return func() (io.ReadWriteCloser, error) {
			ct, st := net.Pipe()
			ch <- st
			return ct, nil
		}
	}
	d := &Dialer{
		Dial:   dialTo(chA),
		Config: Config{Profile: ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(11)},
		Sleep:  func(time.Duration) {},
	}
	c1, tr1, err := d.DialWithRetry()
	if err != nil {
		t.Fatal(err)
	}
	if c1.Resumed() {
		t.Error("first connection claims resumption")
	}
	sess := d.Session()
	if sess == nil || len(sess.Ticket) == 0 {
		t.Fatalf("no ticket after full handshake: %+v", sess)
	}
	c1.Close()
	tr1.Close()
	if v := regA.Counter("issl.tickets_issued").Value(); v != 1 {
		t.Errorf("instance A tickets_issued = %d, want 1", v)
	}

	// Instance B has never seen this client; the ticket alone resumes.
	d.Dial = dialTo(chB)
	c2, tr2, err := d.DialWithRetry()
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("ticket did not resume on a sibling instance")
	}
	if v := regB.Counter("issl.tickets_resumed").Value(); v != 1 {
		t.Errorf("instance B tickets_resumed = %d, want 1", v)
	}
	if st := d.Stats(); st.Resumptions != 1 || st.ResumeFallbacks != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The reissued ticket keeps the chain alive.
	if s := d.Session(); s == nil || len(s.Ticket) == 0 {
		t.Error("resumption did not refresh the ticket")
	}
}

// TestDialTicketRejectionFallsBackSameAttempt: a stale (expired)
// ticket must cost zero retry slots — the server declines, the same
// connection completes a full handshake, and resume_fallback counts it.
func TestDialTicketRejectionFallsBackSameAttempt(t *testing.T) {
	psk := []byte("stale-psk")
	store, fn := testStore(t, time.Minute)
	reg := telemetry.NewRegistry()
	creg := telemetry.NewRegistry()
	ch := make(chan net.Conn, 4)
	ticketEchoServer(t, ch, store, nil, psk, reg)

	d := &Dialer{
		Dial: func() (io.ReadWriteCloser, error) {
			ct, st := net.Pipe()
			ch <- st
			return ct, nil
		},
		Config: Config{Profile: ProfileEmbedded, PSK: psk,
			Rand: prng.NewXorshift(13), Metrics: creg},
		Sleep: func(d time.Duration) { t.Errorf("slept %v; fallback must not back off", d) },
	}
	c1, tr1, err := d.DialWithRetry()
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	tr1.Close()
	if s := d.Session(); s == nil || len(s.Ticket) == 0 {
		t.Fatal("no ticket earned")
	}

	// The ticket expires before the client returns.
	fn.t = fn.t.Add(2 * time.Minute)
	c2, tr2, err := d.DialWithRetry()
	if err != nil {
		t.Fatalf("dial with stale ticket: %v", err)
	}
	defer tr2.Close()
	defer c2.Close()
	if c2.Resumed() {
		t.Error("resumed on an expired ticket")
	}
	st := d.Stats()
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (fallback must not consume a retry slot)", st.Attempts)
	}
	if st.ResumeFallbacks != 1 || st.FullHandshakes != 2 {
		t.Errorf("stats = %+v", st)
	}
	if v := creg.Counter("issl.resume_fallback").Value(); v != 1 {
		t.Errorf("resume_fallback counter = %d, want 1", v)
	}
	if v := reg.Counter("issl.tickets_rejected").Value(); v != 1 {
		t.Errorf("server tickets_rejected = %d, want 1", v)
	}
	// The fallback handshake re-earned a fresh ticket.
	if s := d.Session(); s == nil || len(s.Ticket) == 0 {
		t.Error("fallback did not refresh the ticket")
	}
}
