package issl

import (
	"fmt"
	"io"
	"time"

	"repro/internal/crypto/sha1"
)

// Record layer. Every byte on the wire after the TCP stream starts is
// a record:
//
//	type(1) version(1) length(2) body(length)
//
// Handshake records travel in the clear (like SSL's initial null
// cipher); once Finished messages are exchanged, data records carry
//
//	iv(blockSize) ciphertext(...) mac(12)
//
// where mac = HMAC-SHA1(macKey, seq64 || type || iv || ct)[:12],
// encrypt-then-MAC, with an independent sequence counter and key pair
// per direction.
//
// The steady-state data path is allocation-free: records are sealed
// in place into a staging buffer (appendSealed), opened in place in
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

// writeRecord frames and transmits one record body.
func (c *Conn) writeRecord(recType byte, body []byte) error {
	if len(body) > 0xffff {
		return fmt.Errorf("%w: %d bytes", ErrRecordTooBig, len(body))
	}
	hdr := []byte{recType, protocolVersion, byte(len(body) >> 8), byte(len(body))}
	if _, err := c.tr.Write(append(hdr, body...)); err != nil {
		return err
	}
	return nil
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

// writeHMAC and readHMAC lazily build the streaming MAC states from
// the directional keys. Lazy rather than eager because tests (and the
// fuzz harness) assemble Conns from key material directly; deriveKeys
// drops the cached states whenever it installs fresh keys.
func (c *Conn) writeHMAC() *sha1.HMACState {
	if c.wHMAC == nil {
		c.wHMAC = sha1.NewHMAC(c.wMAC)
	}
	return c.wHMAC
}

func (c *Conn) readHMAC() *sha1.HMACState {
	if c.rHMAC == nil {
		c.rHMAC = sha1.NewHMAC(c.rMAC)
	}
	return c.rHMAC
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
// a dst with capacity to spare makes the call allocation-free. Callers
// must hold wMu (it consumes the rng and the write sequence).
func (c *Conn) appendSealed(dst []byte, recType byte, plaintext []byte) ([]byte, error) {
	bs := c.wCipher.BlockSize()
	padN := bs - len(plaintext)%bs // PKCS#7: always at least one byte
	ctLen := len(plaintext) + padN
	bodyLen := bs + ctLen + macLen
	if bodyLen > 0xffff {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordTooBig, bodyLen)
	}
	off := len(dst)
	dst = append(dst, make([]byte, recordHeaderLen+bodyLen)...)
	rec := dst[off:]
	rec[0] = recType
	rec[1] = protocolVersion
	rec[2] = byte(bodyLen >> 8)
	rec[3] = byte(bodyLen)
	body := rec[recordHeaderLen:]
	iv := body[:bs]
	c.rng.Fill(iv)
	ct := body[bs : bs+ctLen]
	copy(ct, plaintext)
	for i := len(plaintext); i < ctLen; i++ {
		ct[i] = byte(padN)
	}
	if err := c.wCipher.EncryptCBCInPlace(iv, ct); err != nil {
		return nil, err
	}
	var sum [sha1.Size]byte
	macInto(c.writeHMAC(), c.wSeq, recType, iv, ct, &sum)
	copy(body[bs+ctLen:], sum[:macLen])
	c.wSeq++
	return dst, nil
}

// sealRecord encrypts and MACs a data record body (unframed). The hot
// write path stages records with appendSealed directly; this
// allocating form serves the rare paths (alerts, close, Finished) and
// the tests.
func (c *Conn) sealRecord(recType byte, plaintext []byte) ([]byte, error) {
	rec, err := c.appendSealed(nil, recType, plaintext)
	if err != nil {
		return nil, err
	}
	return rec[recordHeaderLen:], nil
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
	macInto(c.readHMAC(), c.rSeq, recType, iv, ct, &sum)
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
