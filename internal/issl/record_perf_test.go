package issl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
	"repro/internal/race"
)

// sealedBodyRef rebuilds a sealed body the way the seed kernel did —
// allocating Pad, CBC over the padded copy, one-shot HMAC — against a
// snapshot of the conn's write state, without advancing that state.
func sealedBodyRef(t *testing.T, c *Conn, rngSeed uint64, seq uint64, recType byte, pt []byte) []byte {
	t.Helper()
	rng := prng.NewXorshift(rngSeed)
	bs := c.wCipher.BlockSize()
	iv := rng.Bytes(bs)
	ct := c.wCipher.Pad(pt)
	if err := c.wCipher.EncryptCBCInPlace(iv, ct); err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 0, 9+len(iv)+len(ct))
	for i := 0; i < 8; i++ {
		msg = append(msg, byte(seq>>(56-8*i)))
	}
	msg = append(msg, recType)
	msg = append(msg, iv...)
	msg = append(msg, ct...)
	m := sha1.HMAC(fuzzMACKey, msg)
	out := append(iv, ct...)
	return append(out, m[:macLen]...)
}

// TestSealMatchesReference pins the wire format: the in-place sealing
// path must emit byte-identical records to the seed implementation
// (same rng consumption, same padding, same MAC) across seeded vectors.
func TestSealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 1_000; i++ {
		seed := uint64(1000 + i)
		c := fuzzKeyedConn(t)
		c.rng = prng.NewXorshift(seed)
		c.wSeq = uint64(rng.Intn(1 << 20))
		pt := make([]byte, rng.Intn(600))
		rng.Read(pt)

		want := sealedBodyRef(t, c, seed, c.wSeq, recData, pt)
		rec, err := c.appendSealed(nil, recData, pt)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec[recordHeaderLen:]; !bytes.Equal(got, want) {
			t.Fatalf("vector %d: sealed record differs from seed kernel output", i)
		}
	}
}

// TestRecordSealOpenZeroAlloc pins the tentpole contract: steady-state
// seal and open allocate nothing.
func TestRecordSealOpenZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	w, r := fuzzKeyedConn(t), fuzzKeyedConn(t)
	pt := make([]byte, 512)
	buf := make([]byte, 0, 1024)
	var sealErr error
	if n := testing.AllocsPerRun(100, func() {
		buf, sealErr = w.appendSealed(buf[:0], recData, pt)
	}); n != 0 {
		t.Errorf("appendSealed allocates %v per record, want 0", n)
	}
	if sealErr != nil {
		t.Fatal(sealErr)
	}

	// openRecord consumes its input (in-place decrypt), so each run
	// re-copies the pristine ciphertext into a reused scratch buffer.
	rec, err := w.appendSealed(nil, recData, pt)
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), rec[recordHeaderLen:]...)
	scratch := make([]byte, len(pristine))
	seq := w.wSeq - 1
	var openErr error
	if n := testing.AllocsPerRun(100, func() {
		copy(scratch, pristine)
		r.rSeq = seq
		_, openErr = r.openRecord(recData, scratch)
	}); n != 0 {
		t.Errorf("openRecord allocates %v per record, want 0", n)
	}
	if openErr != nil {
		t.Fatal(openErr)
	}
}

// TestWriteBatchesRecords checks that one large Write reaches the
// transport in far fewer calls than records, and that a full-duplex
// round trip through the batched path still delivers the bytes.
func TestWriteBatchesRecords(t *testing.T) {
	w := fuzzKeyedConn(t)
	w.cfg.Profile = ProfileEmbedded // 1 KiB records: forces fragmentation
	ct := &countingTransport{}
	w.tr = ct
	payload := make([]byte, 40_000) // ~40 records at 1 KiB
	rand.New(rand.NewSource(52)).Read(payload)
	n, err := w.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if w.recordsOut < 2 {
		t.Fatalf("expected fragmentation, got %d records", w.recordsOut)
	}
	if uint64(ct.writes) >= w.recordsOut {
		t.Errorf("%d transport writes for %d records; expected batching", ct.writes, w.recordsOut)
	}

	// Replay the batched stream through a reading conn.
	r := fuzzKeyedConn(t)
	r.tr = &fuzzTransport{r: bytes.NewReader(ct.buf.Bytes())}
	r.pk = &readPeeker{r: r.tr}
	got := make([]byte, 0, len(payload))
	rbuf := make([]byte, 4096)
	for len(got) < len(payload) {
		m, err := r.Read(rbuf)
		if err != nil {
			t.Fatalf("Read after %d bytes: %v", len(got), err)
		}
		got = append(got, rbuf[:m]...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("batched write round trip corrupted payload")
	}
}

type countingTransport struct {
	buf    bytes.Buffer
	writes int
}

func (c *countingTransport) Read(p []byte) (int, error) { return c.buf.Read(p) }
func (c *countingTransport) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

func BenchmarkRecordSeal_1K(b *testing.B) {
	w := fuzzKeyedConn(b)
	pt := make([]byte, 1024)
	buf := make([]byte, 0, 2048)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = w.appendSealed(buf[:0], recData, pt)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecordOpen_1K(b *testing.B) {
	w, r := fuzzKeyedConn(b), fuzzKeyedConn(b)
	pt := make([]byte, 1024)
	rec, err := w.appendSealed(nil, recData, pt)
	if err != nil {
		b.Fatal(err)
	}
	pristine := append([]byte(nil), rec[recordHeaderLen:]...)
	scratch := make([]byte, len(pristine))
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		copy(scratch, pristine)
		r.rSeq = 0
		if _, err := r.openRecord(recData, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// readLog is a plain reader (no Peek) that records each Read size.
type readLog struct {
	r     io.Reader
	sizes []int
}

func (l *readLog) Read(p []byte) (int, error) {
	l.sizes = append(l.sizes, len(p))
	return l.r.Read(p)
}

func (l *readLog) Write(p []byte) (int, error) { return len(p), nil }

// TestRecordReaderPlainTransport pins the record reader over a
// transport without Peek: it reads exactly the header, then exactly
// the body, never ahead, and maps a short stream to the same errors a
// peek transport gets.
func TestRecordReaderPlainTransport(t *testing.T) {
	stream := []byte{
		recHandshake, protocolVersion, 0x00, 0x03, 'a', 'b', 'c',
		recData, protocolVersion, 0x00, 0x01, 'z',
	}
	log := &readLog{r: bytes.NewReader(stream)}
	c := newConn(log, Config{})
	for _, want := range []string{"abc", "z"} {
		_, body, err := c.readRecord()
		if err != nil || string(body) != want {
			t.Fatalf("readRecord = %q, %v; want %q", body, err, want)
		}
	}
	if _, _, err := c.readRecord(); err != io.EOF {
		t.Errorf("clean end of stream: err = %v, want io.EOF", err)
	}
	if got, want := fmt.Sprint(log.sizes), "[4 3 4 1 4]"; got != want {
		t.Errorf("transport read sizes %s, want %s", got, want)
	}

	for _, tc := range []struct {
		name   string
		stream []byte
		check  func(error) bool
	}{
		{"partial header", []byte{recData, protocolVersion},
			func(err error) bool { return err == io.ErrUnexpectedEOF }},
		{"truncated body", []byte{recData, protocolVersion, 0x00, 0x05, 'x'},
			func(err error) bool { return errors.Is(err, ErrBadRecord) }},
		{"missing body", []byte{recData, protocolVersion, 0x00, 0x05},
			func(err error) bool { return errors.Is(err, ErrBadRecord) }},
	} {
		c := newConn(&readLog{r: bytes.NewReader(tc.stream)}, Config{})
		if _, _, err := c.readRecord(); !tc.check(err) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}
