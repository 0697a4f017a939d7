// Package issl reproduces the paper's subject: a public-domain
// SSL/TLS-style library that "layers on top of the Unix sockets layer
// to provide secure point-to-point communications. After a normal
// unencrypted socket is created, the issl API allows a user to bind to
// the socket and then do secure read/writes on it" (§2).
//
// Two profiles capture the before/after of the port:
//
//   - ProfileUnix — the original library: RSA session-key exchange
//     (over the from-scratch bignum package), every Rijndael key and
//     block size (128/192/256 on both axes), dynamic buffers.
//   - ProfileEmbedded — the RMC2000 port: RSA dropped ("a
//     difficult-to-port bignum package"), key exchange replaced by a
//     pre-shared key, AES fixed at 128-bit key and block (the static
//     allocation consequence of xalloc having no free), bounded record
//     size.
//
// Neither profile logs: handshake, alert and ticket events go to the
// Config's counters (Metrics) and trace (Trace) instead.
//
// The wire protocol is a compact SSL-like layered design: a record
// layer (CBC encryption + truncated HMAC-SHA1, per-direction sequence
// numbers, encrypt-then-MAC) under a four-message handshake
// (ClientHello, ServerHello, KeyExchange, Finished) with a transcript
// digest binding.
package issl

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/telemetry"
)

// Profile selects the library configuration.
type Profile int

// Profiles.
const (
	// ProfileUnix is the full library as found on the workstation.
	ProfileUnix Profile = iota
	// ProfileEmbedded is the RMC2000 port's reduced feature set.
	ProfileEmbedded
)

func (p Profile) String() string {
	if p == ProfileEmbedded {
		return "embedded"
	}
	return "unix"
}

// Limits that differ between profiles.
const (
	// MaxRecordUnix is the plaintext byte limit per record on Unix.
	MaxRecordUnix = 16384
	// MaxRecordEmbedded reflects the port's statically allocated
	// record buffers.
	MaxRecordEmbedded = 1024
)

// Config parameterizes a handshake endpoint.
type Config struct {
	// Profile selects Unix or Embedded behavior.
	Profile Profile
	// keyBits and blockBits choose the Rijndael configuration
	// (128/192/256; default 128). The embedded profile forces both to
	// 128 — the port "dropped support of multiple key and block sizes"
	// — and no production caller of the Unix profile asks for more, so
	// only the package's tests set them; a server adopts the client's.
	keyBits   int
	blockBits int
	// ServerKey is the server's RSA private key (Unix profile server).
	ServerKey *rsa.PrivateKey
	// PSK is the pre-shared master secret (Embedded profile, both ends).
	PSK []byte
	// Rand supplies all nonces, IVs and the premaster secret. Required.
	Rand *prng.Xorshift
	// Resume offers a cached session for an abbreviated handshake
	// (client side). The server may decline, falling back to full.
	Resume *Session
	// Cache enables session issuance and resumption (server side).
	Cache *SessionCache
	// TicketKeys enables sealed session tickets (server side): every
	// successful handshake issues a ticket sealed under the cluster-
	// shared key, and a client-offered ticket is preferred over the
	// Cache for resumption — it works on any instance holding the key,
	// which is what makes a multi-redirector fleet resume statelessly
	// (see ticket.go). Optional; nil disables tickets.
	TicketKeys *TicketKeyStore
	// SignPool, when non-nil, runs the server's RSA private-key
	// operations (KeyExchange decrypt) on a shared bounded worker pool
	// instead of inline, so N simultaneous full handshakes queue for a
	// fixed set of crypto workers rather than each grinding its own
	// exponentiation. Shared across every connection of a server; see
	// signpool.go. Optional; nil runs key ops inline.
	SignPool *SignPool
	// HandshakeTimeout bounds the whole handshake when > 0: a peer that
	// stalls mid-handshake (a half-open connection on a degraded wire)
	// fails with ErrHandshakeTimeout instead of wedging the endpoint
	// forever. Honored when the transport supports read deadlines
	// (tcpip.TCB and net.Conn both do); over a tcpip.TCB the handshake
	// fails at most one 10 ms timer-sweep pass after the deadline.
	HandshakeTimeout time.Duration
	// Metrics receives the connection's counters (handshakes full vs
	// resumed, alerts sent/received, records and plaintext bytes both
	// directions). Optional; nil disables.
	Metrics *telemetry.Registry
	// Trace receives handshake-phase and alert events ("issl" layer).
	// Optional; nil disables.
	Trace *telemetry.Trace
}

// Errors returned by handshake and record processing.
var (
	ErrConfig           = errors.New("issl: invalid configuration")
	ErrHandshake        = errors.New("issl: handshake failure")
	ErrHandshakeTimeout = errors.New("issl: handshake deadline exceeded")
	ErrBadRecord        = errors.New("issl: malformed record")
	ErrBadMAC           = errors.New("issl: record authentication failed")
	ErrRecordTooBig     = errors.New("issl: record exceeds profile limit")
	ErrProfileMismatch  = errors.New("issl: peers negotiated different profiles")
	ErrClosed           = errors.New("issl: connection closed")
)

func (c *Config) validate(server bool) error {
	if c.Rand == nil {
		return fmt.Errorf("%w: nil Rand", ErrConfig)
	}
	switch c.Profile {
	case ProfileUnix:
		if c.keyBits == 0 {
			c.keyBits = 128
		}
		if c.blockBits == 0 {
			c.blockBits = 128
		}
		if !validBits(c.keyBits) || !validBits(c.blockBits) {
			return fmt.Errorf("%w: key %d / block %d bits", ErrConfig, c.keyBits, c.blockBits)
		}
		if server && c.ServerKey == nil {
			return fmt.Errorf("%w: Unix server requires ServerKey", ErrConfig)
		}
	case ProfileEmbedded:
		// The port supports exactly one configuration.
		if c.keyBits != 0 && c.keyBits != 128 {
			return fmt.Errorf("%w: embedded profile is AES-128 only (got %d-bit key)", ErrConfig, c.keyBits)
		}
		if c.blockBits != 0 && c.blockBits != 128 {
			return fmt.Errorf("%w: embedded profile is 128-bit blocks only (got %d)", ErrConfig, c.blockBits)
		}
		c.keyBits, c.blockBits = 128, 128
		if len(c.PSK) == 0 {
			return fmt.Errorf("%w: embedded profile requires PSK (RSA was dropped in the port)", ErrConfig)
		}
	default:
		return fmt.Errorf("%w: unknown profile %d", ErrConfig, c.Profile)
	}
	return nil
}

func validBits(b int) bool { return b == 128 || b == 192 || b == 256 }

func (c *Config) maxRecord() int {
	if c.Profile == ProfileEmbedded {
		return MaxRecordEmbedded
	}
	return MaxRecordUnix
}

// BindServer performs the server side of the handshake over transport
// and returns the secure connection. The name mirrors the issl usage
// the paper describes: create a plain socket, then bind the library to
// it.
func BindServer(transport io.ReadWriter, cfg Config) (*Conn, error) {
	return bind(transport, cfg, true)
}

// BindClient performs the client side of the handshake.
func BindClient(transport io.ReadWriter, cfg Config) (*Conn, error) {
	return bind(transport, cfg, false)
}

func bind(transport io.ReadWriter, cfg Config, server bool) (*Conn, error) {
	if err := cfg.validate(server); err != nil {
		return nil, err
	}
	conn := newConn(transport, cfg)
	var deadline time.Time
	if cfg.HandshakeTimeout > 0 {
		deadline = time.Now().Add(cfg.HandshakeTimeout)
		conn.readDeadline = deadline
	}
	hs := conn.clientHandshake
	if server {
		hs = conn.serverHandshake
	}
	if err := hs(); err != nil {
		if !deadline.IsZero() && time.Now().After(deadline) {
			err = fmt.Errorf("%w (%v): %w", ErrHandshakeTimeout, cfg.HandshakeTimeout, err)
		}
		conn.metrics.handshakesFailed.Inc()
		return nil, err
	}
	if conn.resumed {
		conn.metrics.handshakesResumed.Inc()
	} else {
		conn.metrics.handshakesFull.Inc()
	}
	conn.readDeadline = time.Time{}
	return conn, nil
}
