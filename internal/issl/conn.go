package issl

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
)

// Conn is an established secure connection. It implements
// io.ReadWriteCloser; Read and Write are the "secure read/writes"
// the issl API layered over a bound socket. One concurrent reader and
// one concurrent writer are supported (each direction has independent
// cipher state); multiple concurrent readers or writers are not.
type Conn struct {
	tr  io.ReadWriter
	cfg Config
	rng *prng.Xorshift
	hs  handshakeState

	// master is this connection's derived secret: the record keys and
	// Finished values come from it. secret is the session secret it was
	// derived from on a resumption, or master itself after a full
	// handshake; Session() and issued tickets carry secret, so it stays
	// the same across every resumption of a session.
	master []byte
	secret []byte

	wMu     sync.Mutex // guards write-side state and the rng
	wCipher *aes.Cipher
	rCipher *aes.Cipher
	wMAC    []byte
	rMAC    []byte
	wSeq    uint64
	rSeq    uint64

	// Streaming MAC states, lazily derived from wMAC/rMAC (record.go)
	// and invalidated by deriveKeys. wHMAC is guarded by wMu; rHMAC is
	// owned by the reading goroutine.
	wHMAC *sha1.HMACState
	rHMAC *sha1.HMACState

	rbuf      []byte // decrypted-but-undelivered plaintext
	rdScratch []byte // readRecord body scratch, owned by the reader
	peerClose bool
	closed    atomic.Bool

	// pk is the transport's zero-copy receive interface, resolved once
	// at construction when the transport offers it (tcpip.TCB does).
	// With pk set, records are opened in place inside the transport's
	// receive buffer — rbuf aliases it — and pendingDiscard tracks the
	// consumed record bytes, released lazily before the next record
	// read (or eagerly once rbuf drains). Owned by the reader.
	pk             peekTransport
	pendingDiscard int

	// readDeadline bounds record reads (see SetReadDeadline). Owned by
	// the reading goroutine.
	readDeadline time.Time

	// failErr is the first fatal record-layer error; once set, every
	// Read and Write returns it. Guarded by failMu (Read and Write run
	// on different goroutines).
	failMu  sync.Mutex
	failErr error

	sessionID [SessionIDLen]byte
	ticket    []byte // sealed session ticket issued by the server
	resumed   bool

	// Stats observable by benchmarks and tests.
	bytesIn, bytesOut     uint64
	recordsIn, recordsOut uint64

	// metrics mirrors the stats onto Config.Metrics (nil-safe handles;
	// see telemetry.go).
	metrics connMetrics
}

func newConn(tr io.ReadWriter, cfg Config) *Conn {
	c := &Conn{tr: tr, cfg: cfg, rng: cfg.Rand, metrics: newConnMetrics(cfg.Metrics)}
	if pk, ok := tr.(peekTransport); ok {
		c.pk = pk
	}
	return c
}

// Profile returns the negotiated profile.
func (c *Conn) Profile() Profile { return c.cfg.Profile }

// CipherInfo returns the negotiated key and block sizes in bits.
func (c *Conn) CipherInfo() (keyBits, blockBits int) {
	return c.cfg.KeyBits, c.cfg.BlockBits
}

// Stats returns plaintext byte and record counters for both directions.
func (c *Conn) Stats() (bytesIn, bytesOut, recordsIn, recordsOut uint64) {
	return c.bytesIn, c.bytesOut, c.recordsIn, c.recordsOut
}

// SetReadDeadline bounds subsequent Reads: a record that has not fully
// arrived by t fails with the transport's timeout error. A zero t
// clears the deadline. It must be called from the reading goroutine
// (the Conn supports one concurrent reader).
func (c *Conn) SetReadDeadline(t time.Time) { c.readDeadline = t }

// fail records the first fatal error; later calls keep the original.
func (c *Conn) fail(err error) error {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.failErr == nil {
		c.failErr = err
	}
	return c.failErr
}

func (c *Conn) terminalErr() error {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	return c.failErr
}

// failAndAlert converts a record-layer failure into a typed local
// alert: the peer gets a best-effort authenticated alert record, the
// connection is marked dead, and the AlertError (which unwraps to the
// triggering sentinel) becomes the terminal error.
func (c *Conn) failAndAlert(cause error) error {
	ae := &AlertError{Code: alertFor(cause), cause: cause}
	err := c.fail(ae)
	if err == ae { // first failure: we own sending the alert
		c.trySendAlert(ae.Code)
		c.metrics.alertsSent.Inc()
		c.cfg.Trace.Emit("issl", "alert.sent", "code", ae.Code.String())
		c.cfg.logf("issl: fatal: sent alert %s (%v)", ae.Code, cause)
	}
	return err
}

// alertWriteTimeout caps how long a dying connection blocks trying to
// tell its peer why.
const alertWriteTimeout = 250 * time.Millisecond

// trySendAlert writes a fatal alert record, best effort: it gives up
// quietly if the connection is already closed or the transport is
// wedged (bounded by a write deadline when the transport has one).
func (c *Conn) trySendAlert(code AlertCode) {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.wMu.Lock()
	defer c.wMu.Unlock()
	if wd, ok := c.tr.(interface{ SetWriteDeadline(t time.Time) error }); ok {
		wd.SetWriteDeadline(time.Now().Add(alertWriteTimeout))
		defer wd.SetWriteDeadline(time.Time{})
	}
	sealed, err := c.sealRecord(recClose, []byte{byte(code)})
	if err != nil {
		return
	}
	c.writeRecord(recClose, sealed)
}

// recBufPool holds sealed-record staging buffers shared by all
// connections' Write calls; steady-state writes neither allocate nor
// copy records more than once.
var recBufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeFlushThreshold bounds how many sealed bytes Write stages before
// handing them to the transport in one call.
const writeFlushThreshold = 16 * 1024

// Write encrypts and sends data, fragmenting into records no larger
// than the profile's limit (the embedded port's static buffers).
// Records are sealed back to back into a pooled staging buffer and
// flushed to the transport in batches, so a large Write costs one
// transport call per ~16 KiB of records instead of one per record.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.terminalErr(); err != nil {
		return 0, err
	}
	if c.closed.Load() {
		return 0, ErrClosed
	}
	c.wMu.Lock()
	defer c.wMu.Unlock()
	bufp := recBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	defer func() { *bufp = buf[:0]; recBufPool.Put(bufp) }()

	maxRec := c.cfg.maxRecord()
	written := 0 // plaintext bytes flushed to the transport
	pending := 0 // plaintext bytes sealed but not yet flushed
	pendingRecs := uint64(0)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, err := c.tr.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
		written += pending
		c.bytesOut += uint64(pending)
		c.recordsOut += pendingRecs
		c.metrics.bytesOut.Add(uint64(pending))
		c.metrics.recordsOut.Add(pendingRecs)
		pending, pendingRecs = 0, 0
		return nil
	}
	for off := 0; off < len(p); {
		n := len(p) - off
		if n > maxRec {
			n = maxRec
		}
		var err error
		buf, err = c.appendSealed(buf, recData, p[off:off+n])
		if err != nil {
			if ferr := flush(); ferr != nil {
				return written, ferr
			}
			return written, err
		}
		off += n
		pending += n
		pendingRecs++
		if len(buf) >= writeFlushThreshold {
			if err := flush(); err != nil {
				return written, err
			}
		}
	}
	if err := flush(); err != nil {
		return written, err
	}
	return written, nil
}

// Read returns decrypted plaintext, blocking for at least one byte.
// It returns io.EOF after the peer's close_notify. A record that fails
// authentication or decoding is fatal: the peer is sent a typed alert,
// the connection is dead, and the returned *AlertError unwraps to the
// record-layer sentinel (ErrBadMAC and friends). A fatal alert from
// the peer surfaces the same way with Remote set.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.terminalErr(); err != nil {
		return 0, err
	}
	for len(c.rbuf) == 0 {
		if c.peerClose {
			return 0, io.EOF
		}
		recType, body, err := c.readRecord()
		if err != nil {
			return 0, err // transport-level; nothing to alert over
		}
		switch recType {
		case recData:
			pt, err := c.openRecord(recData, body)
			if err != nil {
				return 0, c.failAndAlert(err)
			}
			if len(pt) > c.cfg.maxRecord() {
				// A peer sent more than our static buffers can take.
				err := fmt.Errorf("%w: %d > %d", ErrRecordTooBig, len(pt), c.cfg.maxRecord())
				return 0, c.failAndAlert(err)
			}
			// rbuf was empty (the loop condition), so pt can be adopted
			// directly: it aliases either the transport's pinned receive
			// buffer (peek path) or rdScratch (fallback path), and the
			// next readRecord only happens after rbuf drains — both
			// backings are stable until then. No copy either way.
			c.rbuf = pt
			c.bytesIn += uint64(len(pt))
			c.recordsIn++
			c.metrics.bytesIn.Add(uint64(len(pt)))
			c.metrics.recordsIn.Inc()
		case recClose:
			pt, err := c.openRecord(recClose, body)
			if err != nil {
				return 0, c.failAndAlert(err)
			}
			if len(pt) >= 1 && AlertCode(pt[0]) != AlertCloseNotify {
				ae := &AlertError{Code: AlertCode(pt[0]), Remote: true}
				c.metrics.alertsRecv.Inc()
				c.cfg.Trace.Emit("issl", "alert.recv", "code", ae.Code.String())
				c.cfg.logf("issl: peer sent fatal alert %s", ae.Code)
				return 0, c.fail(ae)
			}
			c.peerClose = true
		default:
			err := fmt.Errorf("%w: unexpected record type %#x", ErrBadRecord, recType)
			return 0, c.failAndAlert(err)
		}
	}
	n := copy(p, c.rbuf)
	c.rbuf = c.rbuf[n:]
	if len(c.rbuf) == 0 {
		// Record fully delivered: release the transport's receive
		// buffer now rather than at the next readRecord, so the pin
		// (which diverts concurrent arrivals) is held no longer than
		// necessary.
		c.flushPeeked()
	}
	return n, nil
}

// Close sends an authenticated close_notify and marks the connection
// done. The underlying transport is not closed; the caller owns it.
func (c *Conn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.wMu.Lock()
	defer c.wMu.Unlock()
	sealed, err := c.sealRecord(recClose, []byte{byte(AlertCloseNotify)})
	if err != nil {
		return err
	}
	return c.writeRecord(recClose, sealed)
}

// CloseWrite half-closes the connection: close_notify goes out and
// further Writes fail, but Reads continue until the peer's own
// close_notify — the secure-layer analogue of TCP shutdown(SHUT_WR),
// which the redirector's pump uses to propagate one-directional EOF.
func (c *Conn) CloseWrite() error { return c.Close() }
