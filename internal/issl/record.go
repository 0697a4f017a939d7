package issl

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/crypto/sha1"
)

// Record layer. Every byte on the wire after the TCP stream starts is
// a record:
//
//	type(1) version(1) length(2) body(length)
//
// Records travel in the clear (like SSL's initial null cipher) until
// the handshake installs keys; from each side's Finished on, every
// record body is
//
//	iv(blockSize) ciphertext(...) mac(12)
//
// where mac = HMAC-SHA1(macKey, seq64 || type || iv || ct)[:12],
// encrypt-then-MAC, with an independent sequence counter and key pair
// per direction.
//
// One writer (writeRecords) frames every record, clear or sealed, data
// or control. The steady-state data path is allocation-free: records
// are sealed in place into a pooled staging buffer, opened in place in
// the transport's receive buffer (openRecord), and MACed through per-direction
// streaming HMAC states that reuse the key pad blocks.

// Record types.
const (
	recHandshake = 0x16 // borrowed from TLS for familiarity
	recData      = 0x17
	recClose     = 0x15
)

// protocolVersion identifies this wire format.
const protocolVersion = 0x31 // "issl 1"

const macLen = 12

// recordHeaderLen is the framing prefix: type, version, 2-byte length.
const recordHeaderLen = 4

// recBufPool holds record staging buffers shared by all connections;
// steady-state writes neither allocate nor copy records more than once.
var recBufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeFlushThreshold bounds how many framed bytes the writer stages
// before handing them to the transport in one call.
const writeFlushThreshold = 16 * 1024

// writeRecords is the one record writer. It frames p as records of at
// most maxRec bytes each — sealed once write keys are installed, in
// the clear before that — staged back to back in a pooled buffer and
// handed to the transport in one Write per ~16 KiB. It returns how many
// bytes of p, and how many records, the transport accepted. Callers
// hold wMu, or own the Conn outright during the handshake.
func (c *Conn) writeRecords(recType byte, p []byte, maxRec int) (n int, recs uint64, err error) {
	bufp := recBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	defer func() { *bufp = buf[:0]; recBufPool.Put(bufp) }()

	pending, pendingRecs := 0, uint64(0) // staged but not yet flushed
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, err := c.tr.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
		n += pending
		recs += pendingRecs
		pending, pendingRecs = 0, 0
		return nil
	}
	for off := 0; off < len(p); {
		m := min(len(p)-off, maxRec)
		if c.wCipher != nil {
			buf, err = c.appendSealed(buf, recType, p[off:off+m])
		} else {
			var body []byte
			if buf, body, err = appendFrame(buf, recType, m); err == nil {
				copy(body, p[off:off+m])
			}
		}
		if err != nil {
			break // send what was staged, then report err
		}
		off += m
		pending += m
		pendingRecs++
		if len(buf) >= writeFlushThreshold {
			if err := flush(); err != nil {
				return n, recs, err
			}
		}
	}
	if ferr := flush(); ferr != nil {
		return n, recs, ferr
	}
	return n, recs, err
}

// writeRecord sends body as exactly one record.
func (c *Conn) writeRecord(recType byte, body []byte) error {
	_, _, err := c.writeRecords(recType, body, len(body))
	return err
}

// appendFrame appends the header of an n-byte record body to dst,
// followed by n bytes of room for the body, and returns the extended
// slice and the body view. It is the only place a record header is
// built.
func appendFrame(dst []byte, recType byte, n int) ([]byte, []byte, error) {
	if n > 0xffff {
		return dst, nil, fmt.Errorf("%w: %d bytes", ErrRecordTooBig, n)
	}
	off := len(dst)
	dst = append(dst, make([]byte, recordHeaderLen+n)...)
	rec := dst[off:]
	rec[0] = recType
	rec[1] = protocolVersion
	rec[2] = byte(n >> 8)
	rec[3] = byte(n)
	return dst, rec[recordHeaderLen:], nil
}

// peekTransport is the zero-copy receive interface: Peek returns a
// view into the transport's receive buffer (pinning it against
// movement) holding at least n bytes, and Discard consumes bytes and
// releases the pin. tcpip.TCB implements it, so the record layer opens
// records in place inside the receive buffer and one buffer carries
// the bytes from the wire to the plaintext the application reads.
// Other transports are wrapped in a readPeeker.
type peekTransport interface {
	Peek(n int, deadline time.Time) ([]byte, error)
	Discard(n int)
}

// Deadline plumbing for plain readers. Deadlines are honored when the
// transport offers either the tcpip.TCB-style per-call API or the
// net.Conn-style set-once API, and silently best-effort otherwise.
type deadlineReader interface {
	ReadDeadline(buf []byte, deadline time.Time) (int, error)
}

type deadlineSetter interface {
	SetReadDeadline(t time.Time) error
}

// readPeeker gives a plain io.Reader the peekTransport shape for the
// one record reader. Peek reads exactly the bytes it is short of and
// never ahead, so the transport sees the same reads a copying reader
// would make: the header, then the body. Discard drops everything
// peeked (the record reader always discards whole records).
type readPeeker struct {
	r    io.Reader
	buf  []byte
	have int // bytes of buf already read
}

func (p *readPeeker) Peek(n int, deadline time.Time) ([]byte, error) {
	if cap(p.buf) < n {
		grown := make([]byte, n)
		copy(grown, p.buf[:p.have])
		p.buf = grown
	}
	p.buf = p.buf[:n]
	if p.have < n {
		m, err := p.fill(p.buf[p.have:], deadline)
		p.have += m
		if err != nil {
			return nil, err
		}
	}
	return p.buf, nil
}

func (p *readPeeker) Discard(int) { p.have = 0 }

// fill reads all of buf from the transport, honoring deadline. Like
// io.ReadFull it returns io.EOF only when nothing was read.
func (p *readPeeker) fill(buf []byte, deadline time.Time) (int, error) {
	if !deadline.IsZero() {
		if dr, ok := p.r.(deadlineReader); ok {
			n := 0
			for n < len(buf) {
				m, err := dr.ReadDeadline(buf[n:], deadline)
				n += m
				if err != nil {
					if err == io.EOF && n > 0 {
						err = io.ErrUnexpectedEOF
					}
					return n, err
				}
			}
			return n, nil
		}
		if ds, ok := p.r.(deadlineSetter); ok {
			ds.SetReadDeadline(deadline)
			defer ds.SetReadDeadline(time.Time{})
		}
	}
	return io.ReadFull(p.r, buf)
}

// flushPeeked releases record bytes consumed from the peek transport.
func (c *Conn) flushPeeked() {
	if c.pendingDiscard > 0 {
		c.pk.Discard(c.pendingDiscard)
		c.pendingDiscard = 0
	}
}

// readRecord reads exactly one record, returning its type and body.
// The record is never copied out of the peek transport's buffer, so
// the body is valid only until the next readRecord call; callers that
// keep record contents (the transcript, the ticket) copy what they
// need. The previous record's bytes are released first; then the
// header is peeked, the full record is peeked (re-pinning, which
// invalidates the header view — its fields are read into locals
// before that), and the body view is handed back with its length
// registered for the next flush.
func (c *Conn) readRecord() (byte, []byte, error) {
	c.flushPeeked()
	hdr, err := c.pk.Peek(recordHeaderLen, c.readDeadline)
	if err != nil {
		return 0, nil, err
	}
	recType := hdr[0]
	if hdr[1] != protocolVersion {
		return 0, nil, fmt.Errorf("%w: version %#x", ErrBadRecord, hdr[1])
	}
	n := int(hdr[2])<<8 | int(hdr[3])
	buf, err := c.pk.Peek(recordHeaderLen+n, c.readDeadline)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("%w: truncated body: %v", ErrBadRecord, err)
	}
	c.pendingDiscard = recordHeaderLen + n
	return recType, buf[recordHeaderLen : recordHeaderLen+n], nil
}

// macInto computes the record MAC into sum without allocating:
// HMAC(key, seq64 || type || iv || ct), truncated by the callers.
func macInto(st *sha1.HMACState, seq uint64, recType byte, iv, ct []byte, sum *[sha1.Size]byte) {
	st.Reset()
	var pre [9]byte
	pre[0] = byte(seq >> 56)
	pre[1] = byte(seq >> 48)
	pre[2] = byte(seq >> 40)
	pre[3] = byte(seq >> 32)
	pre[4] = byte(seq >> 24)
	pre[5] = byte(seq >> 16)
	pre[6] = byte(seq >> 8)
	pre[7] = byte(seq)
	pre[8] = recType
	st.Write(pre[:])
	st.Write(iv)
	st.Write(ct)
	st.SumInto(sum)
}

// appendSealed seals plaintext as one complete framed record (header
// included) appended to dst and returns the extended slice. Everything
// — IV generation, padding, CBC, MAC — happens in place inside dst, so
// a dst with capacity to spare makes the call allocation-free. On
// error dst comes back unextended. Callers must hold wMu (it consumes
// the rng and the write sequence).
func (c *Conn) appendSealed(dst []byte, recType byte, plaintext []byte) ([]byte, error) {
	bs := c.wCipher.BlockSize()
	padN := bs - len(plaintext)%bs // PKCS#7: always at least one byte
	ctLen := len(plaintext) + padN
	off := len(dst)
	dst, body, err := appendFrame(dst, recType, bs+ctLen+macLen)
	if err != nil {
		return dst, err
	}
	iv := body[:bs]
	c.rng.Fill(iv)
	ct := body[bs : bs+ctLen]
	copy(ct, plaintext)
	for i := len(plaintext); i < ctLen; i++ {
		ct[i] = byte(padN)
	}
	if err := c.wCipher.EncryptCBCInPlace(iv, ct); err != nil {
		return dst[:off], err
	}
	var sum [sha1.Size]byte
	macInto(&c.wHMAC, c.wSeq, recType, iv, ct, &sum)
	copy(body[bs+ctLen:], sum[:macLen])
	c.wSeq++
	return dst, nil
}

// openRecord verifies and decrypts a data record body. Decryption is
// in place: on success the returned plaintext aliases body's
// ciphertext region and body's contents are consumed. A record that
// fails authentication is left untouched (the MAC is checked before
// anything is written).
func (c *Conn) openRecord(recType byte, body []byte) ([]byte, error) {
	bs := c.rCipher.BlockSize()
	if len(body) < bs+macLen || (len(body)-bs-macLen)%bs != 0 {
		return nil, fmt.Errorf("%w: sealed body length %d", ErrBadRecord, len(body))
	}
	iv := body[:bs]
	ct := body[bs : len(body)-macLen]
	mac := body[len(body)-macLen:]
	var sum [sha1.Size]byte
	macInto(&c.rHMAC, c.rSeq, recType, iv, ct, &sum)
	if !constEq(mac, sum[:macLen]) {
		return nil, ErrBadMAC
	}
	c.rSeq++
	if err := c.rCipher.DecryptCBCInPlace(iv, ct); err != nil {
		return nil, err
	}
	pt, err := c.rCipher.Unpad(ct)
	if err != nil {
		return nil, fmt.Errorf("%w: padding", ErrBadRecord)
	}
	return pt, nil
}

// constEq compares MACs in constant time.
func constEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
