package issl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
)

// Sealed session tickets: stateless resumption for a redirector fleet.
//
// The shared SessionCache gives one process cheap resumption, but it is
// the one piece of per-node state a multi-instance service cannot
// share: kill the node and its cache — and every client pinned to it —
// dies with it. A sealed ticket moves that state to the client: the
// server seals the negotiated master secret under a cluster-shared
// ticket key and hands the opaque blob back; any instance holding the
// key opens it and resumes the session without ever having seen the
// client before. The construction is the classic encrypt-then-MAC
// self-ticket (RFC 5077's shape, built from this repo's own kernels):
//
//	ticket = version(1) keyID(4) iv(16) ct(16k) mac(20)
//	state  = expiry_unix_sec(8 BE) masterLen(1) master
//	ct     = AES-128-CBC(encKey, iv, pad(state))       (PKCS#7)
//	mac    = HMAC-SHA1(macKey, version||keyID||iv||ct) (full 20 bytes)
//
// with per-purpose keys derived from the cluster-shared key material:
//
//	encKey = HMAC-SHA1(material, "ticket enc")[:16]
//	macKey = HMAC-SHA1(material, "ticket mac")
//	keyID  = HMAC-SHA1(material, "ticket id")[:4]
//
// keyID names the sealing key on the wire. A ticket under any other key
// (another cluster's, or a store built from other material) is
// rejected, and the client degrades to a full handshake (never to an
// error — see Dialer.DialWithRetry).

// TicketVersion is the sealed-ticket wire format version this code
// mints and the only one it accepts.
const TicketVersion = 0x01

// ticket geometry.
const (
	ticketKeyIDLen  = 4
	ticketIVLen     = 16
	ticketMACLen    = sha1.Size
	ticketHeaderLen = 1 + ticketKeyIDLen // version || keyID
	// ticketStateLen is the fixed plaintext length before padding:
	// expiry(8) masterLen(1) master(20; sha1.HMAC output).
	ticketMasterLen = sha1.Size
	ticketStateLen  = 8 + 1 + ticketMasterLen
	// MaxTicketLen bounds a ticket a handshake will carry; anything
	// larger is a malformed hello, not a ticket.
	MaxTicketLen = 256
)

// Ticket rejection reasons, all wrapped in ErrTicket so callers can
// treat "any rejection" uniformly (the handshake degrades to full).
var (
	ErrTicket        = errors.New("issl: ticket rejected")
	ErrTicketFormat  = fmt.Errorf("%w: malformed", ErrTicket)
	ErrTicketVersion = fmt.Errorf("%w: unknown version", ErrTicket)
	ErrTicketKey     = fmt.Errorf("%w: unknown key", ErrTicket)
	ErrTicketMAC     = fmt.Errorf("%w: authentication failed", ErrTicket)
	ErrTicketExpired = fmt.Errorf("%w: expired", ErrTicket)
)

// ticketKey is one derived sealing key.
type ticketKey struct {
	id  [ticketKeyIDLen]byte
	enc *aes.Cipher
	mac []byte
}

func deriveTicketKey(material []byte) (ticketKey, error) {
	encFull := sha1.HMAC(material, []byte("ticket enc"))
	macFull := sha1.HMAC(material, []byte("ticket mac"))
	idFull := sha1.HMAC(material, []byte("ticket id"))
	c, err := aes.New(encFull[:16], 16)
	if err != nil {
		return ticketKey{}, err
	}
	k := ticketKey{enc: c, mac: macFull[:]}
	copy(k.id[:], idFull[:ticketKeyIDLen])
	return k, nil
}

// TicketKeyStore mints and opens sealed session tickets under a
// cluster-shared key. Every redirector instance in a cluster holds the same store
// (or one built from the same material), which is exactly what makes
// any-instance resumption work. Safe for concurrent use.
type TicketKeyStore struct {
	mu       sync.Mutex
	key      ticketKey
	lifetime time.Duration
	now      func() time.Time
	rng      *prng.Xorshift // IV source
}

// NewTicketKeyStore derives the sealing keys from the shared material
// (any non-empty byte string; distribute it like the PSK). lifetime
// bounds minted tickets (0 = one hour).
func NewTicketKeyStore(material []byte, lifetime time.Duration) (*TicketKeyStore, error) {
	if len(material) == 0 {
		return nil, fmt.Errorf("%w: empty ticket key material", ErrConfig)
	}
	if lifetime <= 0 {
		lifetime = time.Hour
	}
	k, err := deriveTicketKey(material)
	if err != nil {
		return nil, err
	}
	seed := binary.BigEndian.Uint64(k.mac[:8])
	return &TicketKeyStore{
		key:      k,
		lifetime: lifetime,
		now:      time.Now,
		rng:      prng.NewXorshift(seed | 1),
	}, nil
}

// SetNow overrides the store's clock (tests, and the conformance
// harness, which needs a pinned expiry).
func (s *TicketKeyStore) SetNow(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// SetRand overrides the IV source with a deterministic PRNG so two
// stores built alike mint byte-identical tickets (the conformance
// check diffs on exactly that).
func (s *TicketKeyStore) SetRand(rng *prng.Xorshift) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rng = rng
}

// Seal mints a ticket over the master secret, expiring Lifetime from
// now under the current key.
func (s *TicketKeyStore) Seal(master []byte) ([]byte, error) {
	if len(master) != ticketMasterLen {
		return nil, fmt.Errorf("%w: master length %d", ErrTicketFormat, len(master))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := &s.key
	expiry := s.now().Add(s.lifetime)

	var state [ticketStateLen]byte
	binary.BigEndian.PutUint64(state[:8], uint64(expiry.Unix()))
	state[8] = ticketMasterLen
	copy(state[9:], master)

	padded := k.enc.Pad(state[:])
	t := make([]byte, 0, ticketHeaderLen+ticketIVLen+len(padded)+ticketMACLen)
	t = append(t, TicketVersion)
	t = append(t, k.id[:]...)
	iv := make([]byte, ticketIVLen)
	s.rng.Fill(iv)
	t = append(t, iv...)
	if err := k.enc.EncryptCBCInPlace(iv, padded); err != nil {
		return nil, err
	}
	t = append(t, padded...)
	mac := sha1.HMAC(k.mac, t)
	t = append(t, mac[:]...)
	return t, nil
}

// Open verifies and decrypts a ticket, returning the sealed master
// secret. Every failure is a typed wrap of ErrTicket; none panic on
// attacker-shaped input — the handshake's answer to any of them is a
// full handshake, not an error to the client.
func (s *TicketKeyStore) Open(t []byte) ([]byte, error) {
	if len(t) < ticketHeaderLen+ticketIVLen+16+ticketMACLen || len(t) > MaxTicketLen {
		return nil, fmt.Errorf("%w: length %d", ErrTicketFormat, len(t))
	}
	if t[0] != TicketVersion {
		return nil, fmt.Errorf("%w: %#x", ErrTicketVersion, t[0])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	k := &s.key
	if !constEq(k.id[:], t[1:1+ticketKeyIDLen]) {
		return nil, ErrTicketKey
	}
	body, mac := t[:len(t)-ticketMACLen], t[len(t)-ticketMACLen:]
	want := sha1.HMAC(k.mac, body)
	if !constEq(mac, want[:]) {
		return nil, ErrTicketMAC
	}
	ct := body[ticketHeaderLen+ticketIVLen:]
	if len(ct)%16 != 0 {
		return nil, fmt.Errorf("%w: ciphertext length %d", ErrTicketFormat, len(ct))
	}
	iv := append([]byte(nil), body[ticketHeaderLen:ticketHeaderLen+ticketIVLen]...)
	buf := append([]byte(nil), ct...)
	if err := k.enc.DecryptCBCInPlace(iv, buf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTicketFormat, err)
	}
	state, err := k.enc.Unpad(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: padding", ErrTicketFormat)
	}
	if len(state) != ticketStateLen || state[8] != ticketMasterLen {
		return nil, fmt.Errorf("%w: state length %d", ErrTicketFormat, len(state))
	}
	expiry := time.Unix(int64(binary.BigEndian.Uint64(state[:8])), 0)
	// Boundary: a ticket is good through its expiry second inclusive —
	// rejected only when now is strictly after it.
	if now.After(expiry) {
		return nil, fmt.Errorf("%w: at %d, now %d", ErrTicketExpired, expiry.Unix(), now.Unix())
	}
	return append([]byte(nil), state[9:9+ticketMasterLen]...), nil
}
