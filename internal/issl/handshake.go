package issl

import (
	"bytes"
	"fmt"

	"repro/internal/crypto/bignum"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
)

// Handshake messages (bodies of recHandshake records):
//
//	ClientHello:  0x01 profile keyBits/8 blockBits/8 clientRandom(32)
//	              sidLen(1) [sessionID(16)] [tktLen(2) ticket]
//	ServerHello:  0x02 profile keyBits/8 blockBits/8 serverRandom(32)
//	              resumed(1) sidLen(1) [sessionID(16)] tktPromise(1)
//	              [Unix full handshake: eLen(2) e nLen(2) n]
//	KeyExchange:  0x03 [Unix: ctLen(2) rsaCiphertext] [Embedded: empty]
//	              (omitted entirely on resumption)
//	Finished:     0x04 verify(20)   — first message under the new keys
//	NewSessionTicket: 0x05 tktLen(2) ticket — sealed under the new
//	              keys, sent after the server's Finished when the
//	              ServerHello promised one (tktPromise=1). Not part of
//	              the Finished transcript; the record MAC covers it.
//
// The ticket fields are extensions over the original format: a server
// tolerates a ClientHello without the ticket tail, so transcripts from
// older corpora still parse. A client-offered ticket is the preferred
// resumption path — it works on any cluster instance — with the
// session-ID cache as the per-instance fallback.
//
// Key schedule: master = HMAC(premaster, "master"||cr||sr); per
// direction, writeKey = expand(master, "c key"/"s key")[:keyBytes] and
// macKey = HMAC(master, "c mac"/"s mac"). The Finished verify value is
// HMAC(master, label || SHA1(transcript)), label distinguishing the
// two directions, so a tampered handshake cannot converge.
//
// The session secret is the master of the full handshake that
// established the session. A resumption feeds it in as the premaster,
// so each resumed connection gets its own master (and keys) from the
// secret plus fresh nonces, while the secret itself never changes:
// the server's cache entry, every ticket it issues, and the client's
// Session() all carry that one secret, however often it is resumed.
//
// Each role runs its own hello exchange (and, on a full handshake, the
// KeyExchange); from there both roles and both handshake kinds share
// one tail, finish: install keys, Finished each way, ticket.

const (
	msgClientHello = 0x01
	msgServerHello = 0x02
	msgKeyExchange = 0x03
	msgFinished    = 0x04
	msgNewTicket   = 0x05
)

const randomLen = 32

// premasterLen is the session secret length the client generates.
const premasterLen = 32

type handshakeState struct {
	transcript   bytes.Buffer
	clientRandom [randomLen]byte
	serverRandom [randomLen]byte
	premaster    []byte
}

// msgNames label handshake messages in errors and logs.
var msgNames = [...]string{msgClientHello: "ClientHello", msgServerHello: "ServerHello",
	msgKeyExchange: "KeyExchange", msgFinished: "Finished", msgNewTicket: "NewSessionTicket"}

// addToTranscript appends a handshake message to the transcript the
// Finished values bind: every message except NewSessionTicket, which
// follows them.
func (hs *handshakeState) addToTranscript(msg []byte) {
	if msg[0] != msgNewTicket {
		hs.transcript.Write(msg)
	}
}

// sendHandshake sends one handshake message as one record, in the
// clear before keys are installed and sealed after.
func (c *Conn) sendHandshake(msg []byte) error {
	c.hs.addToTranscript(msg)
	if err := c.writeRecord(recHandshake, msg); err != nil {
		return fmt.Errorf("%w: sending %s: %v", ErrHandshake, msgNames[msg[0]], err)
	}
	return nil
}

// readHandshake reads the next record, which must carry the handshake
// message want: in the clear before keys are installed, opened under
// them after (Finished and NewSessionTicket). It is the one handshake
// reader. The message is valid until the next record read.
func (c *Conn) readHandshake(want byte) ([]byte, error) {
	recType, msg, err := c.readRecord()
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrHandshake, msgNames[want], err)
	}
	if recType != recHandshake {
		return nil, fmt.Errorf("%w: expected %s, got record type %#x", ErrHandshake, msgNames[want], recType)
	}
	if c.rCipher != nil {
		if msg, err = c.openRecord(recHandshake, msg); err != nil {
			return nil, fmt.Errorf("%w: opening %s: %v", ErrHandshake, msgNames[want], err)
		}
	}
	if len(msg) == 0 || msg[0] != want {
		return nil, fmt.Errorf("%w: expected %s, got message %x", ErrHandshake, msgNames[want], msg[:min(len(msg), 1)])
	}
	c.hs.addToTranscript(msg)
	return msg, nil
}

func bitsByte(bits int) byte { return byte(bits / 8) }

// --- client ------------------------------------------------------------------

func (c *Conn) clientHandshake() error {
	cfg := &c.cfg
	hsStart := cfg.Trace.Now()
	c.rng.Fill(c.hs.clientRandom[:])

	hello := []byte{msgClientHello, byte(cfg.Profile), bitsByte(cfg.keyBits), bitsByte(cfg.blockBits)}
	hello = append(hello, c.hs.clientRandom[:]...)
	offeredTicket := false
	if cfg.Resume != nil {
		if cfg.Resume.ID != ([SessionIDLen]byte{}) {
			hello = append(hello, SessionIDLen)
			hello = append(hello, cfg.Resume.ID[:]...)
		} else {
			hello = append(hello, 0)
		}
		if n := len(cfg.Resume.Ticket); n > 0 && n <= MaxTicketLen {
			offeredTicket = true
			hello = append(hello, byte(n>>8), byte(n))
			hello = append(hello, cfg.Resume.Ticket...)
		} else {
			hello = append(hello, 0, 0)
		}
	} else {
		hello = append(hello, 0, 0, 0) // no session ID, no ticket
	}
	if err := c.sendHandshake(hello); err != nil {
		return err
	}

	sh, err := c.readHandshake(msgServerHello)
	if err != nil {
		return err
	}
	if len(sh) < 4+randomLen+3 {
		return fmt.Errorf("%w: short ServerHello", ErrHandshake)
	}
	if Profile(sh[1]) != cfg.Profile {
		return fmt.Errorf("%w: client %s vs server %s", ErrProfileMismatch, cfg.Profile, Profile(sh[1]))
	}
	if int(sh[2])*8 != cfg.keyBits || int(sh[3])*8 != cfg.blockBits {
		return fmt.Errorf("%w: server negotiated %d/%d, client wanted %d/%d",
			ErrHandshake, int(sh[2])*8, int(sh[3])*8, cfg.keyBits, cfg.blockBits)
	}
	copy(c.hs.serverRandom[:], sh[4:4+randomLen])
	rest := sh[4+randomLen:]
	resumedFlag := rest[0] == 1
	sidLen := int(rest[1])
	rest = rest[2:]
	if sidLen > 0 {
		if sidLen != SessionIDLen || len(rest) < sidLen {
			return fmt.Errorf("%w: bad session id", ErrHandshake)
		}
		copy(c.sessionID[:], rest[:sidLen])
		rest = rest[sidLen:]
	}
	if len(rest) < 1 {
		return fmt.Errorf("%w: truncated ServerHello", ErrHandshake)
	}
	ticketPromised := rest[0] == 1
	rest = rest[1:]
	phaseStart := c.emitPhase("client", "hello", resumedFlag, hsStart)
	if resumedFlag {
		// A resumption is legitimate when it matches our offer: either
		// the session ID we sent (cache path, sid echoed) or the ticket
		// we sent (stateless path, no sid needed).
		sidMatch := cfg.Resume != nil && sidLen > 0 && c.sessionID == cfg.Resume.ID
		if cfg.Resume == nil || (!sidMatch && !offeredTicket) {
			return fmt.Errorf("%w: server resumed a session we did not offer", ErrHandshake)
		}
		// Abbreviated handshake: no KeyExchange; fresh keys derive
		// from the session secret plus the new nonces.
		c.resumed = true
		c.secret = append([]byte(nil), cfg.Resume.master...)
		c.hs.premaster = c.secret
		if !ticketPromised {
			// Keep resuming on the same ticket next time.
			c.ticket = append([]byte(nil), cfg.Resume.Ticket...)
		}
	} else {
		var keyExchange []byte
		switch cfg.Profile {
		case ProfileUnix:
			pub, err := parsePublicKey(rest)
			if err != nil {
				return err
			}
			c.hs.premaster = c.rng.Bytes(premasterLen)
			ct, err := pub.EncryptPKCS1(c.rng, c.hs.premaster)
			if err != nil {
				return fmt.Errorf("%w: RSA encrypt: %v", ErrHandshake, err)
			}
			keyExchange = []byte{msgKeyExchange, byte(len(ct) >> 8), byte(len(ct))}
			keyExchange = append(keyExchange, ct...)
		case ProfileEmbedded:
			// RSA was dropped in the port; the premaster is the PSK.
			c.hs.premaster = append([]byte(nil), cfg.PSK...)
			keyExchange = []byte{msgKeyExchange}
		}
		if err := c.sendHandshake(keyExchange); err != nil {
			return err
		}
		phaseStart = c.emitPhase("client", "key_exchange", false, phaseStart)
	}
	return c.finish(true, ticketPromised, phaseStart)
}

// recvNewTicket reads the sealed NewSessionTicket message the
// ServerHello promised and stores the ticket for Session().
func (c *Conn) recvNewTicket() error {
	msg, err := c.readHandshake(msgNewTicket)
	if err != nil {
		return err
	}
	if len(msg) < 3 {
		return fmt.Errorf("%w: malformed NewSessionTicket", ErrHandshake)
	}
	n := int(msg[1])<<8 | int(msg[2])
	if n == 0 || n > MaxTicketLen || len(msg) != 3+n {
		return fmt.Errorf("%w: NewSessionTicket length %d", ErrHandshake, n)
	}
	c.ticket = append([]byte(nil), msg[3:3+n]...)
	return nil
}

// sendNewTicket mints a ticket over the session secret and sends it
// sealed under the new keys (server side, after Finished).
func (c *Conn) sendNewTicket() error {
	tkt, err := c.cfg.TicketKeys.Seal(c.secret)
	if err != nil {
		return fmt.Errorf("%w: sealing ticket: %v", ErrHandshake, err)
	}
	msg := []byte{msgNewTicket, byte(len(tkt) >> 8), byte(len(tkt))}
	if err := c.sendHandshake(append(msg, tkt...)); err != nil {
		return err
	}
	c.ticket = tkt
	c.metrics.ticketsIssued.Inc()
	return nil
}

// --- server ------------------------------------------------------------------

func (c *Conn) serverHandshake() error {
	cfg := &c.cfg
	hsStart := cfg.Trace.Now()
	ch, err := c.readHandshake(msgClientHello)
	if err != nil {
		return err
	}
	if len(ch) < 4+randomLen+1 {
		return fmt.Errorf("%w: short ClientHello", ErrHandshake)
	}
	if Profile(ch[1]) != cfg.Profile {
		return fmt.Errorf("%w: server %s vs client %s", ErrProfileMismatch, cfg.Profile, Profile(ch[1]))
	}
	wantKey, wantBlock := int(ch[2])*8, int(ch[3])*8
	if cfg.Profile == ProfileEmbedded && (wantKey != 128 || wantBlock != 128) {
		// The port's static buffers cannot hold other sizes.
		return fmt.Errorf("%w: embedded server supports only 128/128, client asked %d/%d",
			ErrHandshake, wantKey, wantBlock)
	}
	if !validBits(wantKey) || !validBits(wantBlock) {
		return fmt.Errorf("%w: client asked %d/%d", ErrHandshake, wantKey, wantBlock)
	}
	// The server accedes to the client's cipher geometry (the library
	// trusts both ends were configured alike; issl had no downgrade
	// negotiation to speak of).
	cfg.keyBits, cfg.blockBits = wantKey, wantBlock
	copy(c.hs.clientRandom[:], ch[4:4+randomLen])

	// What did the client offer? A session ID (per-instance cache path),
	// a sealed ticket (any-instance stateless path), both, or neither.
	var offered [SessionIDLen]byte
	offeredSession := false
	var offeredTicket []byte
	tail := ch[4+randomLen:]
	if len(tail) >= 1 {
		sidLen := int(tail[0])
		if sidLen == SessionIDLen && len(tail) >= 1+sidLen {
			copy(offered[:], tail[1:1+sidLen])
			offeredSession = true
		}
		if sidLen == 0 || offeredSession {
			tail = tail[1+sidLen:]
			// Ticket extension: optional, so older hellos still parse.
			if len(tail) >= 2 {
				if n := int(tail[0])<<8 | int(tail[1]); n > 0 && n <= MaxTicketLen && len(tail) >= 2+n {
					offeredTicket = tail[2 : 2+n]
				}
			}
		}
	}

	// Resumption preference: the ticket first — it resumes on any
	// instance, and a cluster client's cache entry usually lives on a
	// different node — then the local session cache. Any ticket
	// rejection (expired, retired key, tampered, future version)
	// degrades to the next path, never to a handshake failure.
	viaTicket := false
	var cachedMaster []byte
	if len(offeredTicket) > 0 && cfg.TicketKeys != nil {
		m, err := cfg.TicketKeys.Open(offeredTicket)
		if err == nil {
			cachedMaster, viaTicket = m, true
			c.metrics.ticketsResumed.Inc()
		} else {
			c.metrics.ticketsRejected.Inc()
			c.cfg.Trace.Emit("issl", "ticket.rejected", "err", err.Error())
		}
	}
	if cachedMaster == nil && offeredSession && cfg.Cache != nil {
		cachedMaster, _ = cfg.Cache.get(offered)
	}

	c.rng.Fill(c.hs.serverRandom[:])
	promiseTicket := cfg.TicketKeys != nil
	withSID := true // the ServerHello carries a session ID
	switch {
	case cachedMaster != nil:
		// Abbreviated handshake (Goldberg et al. session-key caching,
		// or its stateless ticket form): echo the offered ID, if any.
		c.resumed = true
		c.secret, c.hs.premaster = cachedMaster, cachedMaster
		if viaTicket && !offeredSession {
			withSID = false
		} else {
			c.sessionID = offered
		}
	case cfg.Cache != nil:
		c.rng.Fill(c.sessionID[:]) // issue a new session ID
	default:
		withSID = false
	}
	if err := c.sendHandshake(c.serverHello(withSID, promiseTicket)); err != nil {
		return err
	}
	phaseStart := c.emitPhase("server", "hello", c.resumed, hsStart)

	if !c.resumed {
		kx, err := c.readHandshake(msgKeyExchange)
		if err != nil {
			return err
		}
		switch cfg.Profile {
		case ProfileUnix:
			if len(kx) < 3 {
				return fmt.Errorf("%w: short KeyExchange", ErrHandshake)
			}
			n := int(kx[1])<<8 | int(kx[2])
			if len(kx) != 3+n {
				return fmt.Errorf("%w: KeyExchange length mismatch", ErrHandshake)
			}
			pm, err := cfg.SignPool.Decrypt(cfg.ServerKey, kx[3:])
			if err != nil {
				return fmt.Errorf("%w: RSA decrypt: %v", ErrHandshake, err)
			}
			if len(pm) != premasterLen {
				return fmt.Errorf("%w: premaster length %d", ErrHandshake, len(pm))
			}
			c.hs.premaster = pm
		case ProfileEmbedded:
			c.hs.premaster = append([]byte(nil), cfg.PSK...)
		}
		phaseStart = c.emitPhase("server", "key_exchange", false, phaseStart)
	}
	return c.finish(false, promiseTicket, phaseStart)
}

// serverHello builds the ServerHello for either handshake kind:
// the resumed flag, the session ID when withSID (c.sessionID, echoed or
// newly issued), the ticket promise, and on a Unix full handshake the
// server's public key.
func (c *Conn) serverHello(withSID, promiseTicket bool) []byte {
	cfg := &c.cfg
	hello := make([]byte, 0, 4+randomLen+3+SessionIDLen)
	hello = append(hello, msgServerHello, byte(cfg.Profile), bitsByte(cfg.keyBits), bitsByte(cfg.blockBits))
	hello = append(hello, c.hs.serverRandom[:]...)
	hello = append(hello, flagByte(c.resumed))
	if withSID {
		hello = append(hello, SessionIDLen)
		hello = append(hello, c.sessionID[:]...)
	} else {
		hello = append(hello, 0)
	}
	hello = append(hello, flagByte(promiseTicket))
	if !c.resumed && cfg.Profile == ProfileUnix {
		hello = append(hello, marshalPublicKey(&cfg.ServerKey.PublicKey)...)
	}
	return hello
}

func flagByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// --- finish -------------------------------------------------------------------

// finish is the handshake's tail, the same for both roles and both
// handshake kinds: install the keys, exchange Finished in role order
// (the client speaks first under the new keys), then issue (server) or
// receive (client) the ticket the ServerHello promised. phaseStart
// opens the trace's "finished" phase.
func (c *Conn) finish(isClient, ticketPromised bool, phaseStart uint64) error {
	if err := c.deriveKeys(isClient); err != nil {
		return err
	}
	if !c.resumed {
		// A full handshake's master is the new session's secret.
		c.secret = c.master
		if !isClient && c.cfg.Cache != nil {
			c.cfg.Cache.put(c.sessionID, c.secret)
		}
	}
	for _, label := range [2]string{"client finished", "server finished"} {
		var err error
		if (label == "client finished") == isClient {
			err = c.sendFinished(label)
		} else {
			err = c.recvFinished(label)
		}
		if err != nil {
			return err
		}
	}
	if ticketPromised {
		var err error
		if isClient {
			err = c.recvNewTicket()
		} else {
			err = c.sendNewTicket()
		}
		if err != nil {
			return err
		}
	}
	role := "server"
	if isClient {
		role = "client"
	}
	c.emitPhase(role, "finished", c.resumed, phaseStart)
	return nil
}

func (c *Conn) verifyData(label string) []byte {
	digest := sha1.Sum1(c.hs.transcript.Bytes())
	v := sha1.HMAC(c.master, append([]byte(label), digest[:]...))
	return v[:]
}

func (c *Conn) sendFinished(label string) error {
	return c.sendHandshake(append([]byte{msgFinished}, c.verifyData(label)...))
}

// recvFinished checks the peer's Finished against the verify value
// over the transcript that precedes it.
func (c *Conn) recvFinished(label string) error {
	want := c.verifyData(label)
	msg, err := c.readHandshake(msgFinished)
	if err != nil {
		return err
	}
	if len(msg) != 1+sha1.Size || !constEq(msg[1:], want) {
		return fmt.Errorf("%w: Finished verify mismatch", ErrHandshake)
	}
	return nil
}

// --- key schedule ---------------------------------------------------------------

// deriveKeys computes the connection's master secret from the
// premaster (on a resumption, the session secret) and the nonces, and
// installs directional cipher/MAC state. isClient orients write vs
// read keys.
func (c *Conn) deriveKeys(isClient bool) error {
	seed := make([]byte, 0, len("master")+2*randomLen)
	seed = append(seed, "master"...)
	seed = append(seed, c.hs.clientRandom[:]...)
	seed = append(seed, c.hs.serverRandom[:]...)
	master := sha1.HMAC(c.hs.premaster, seed)
	c.master = master[:]

	keyBytes := c.cfg.keyBits / 8
	cKey := expand(c.master, "c key", keyBytes)
	sKey := expand(c.master, "s key", keyBytes)
	cMAC := expand(c.master, "c mac", sha1.Size)
	sMAC := expand(c.master, "s mac", sha1.Size)

	cCipher, err := cipherFor(cKey, c.cfg.blockBits)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	sCipher, err := cipherFor(sKey, c.cfg.blockBits)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if isClient {
		c.wCipher, c.wMAC = cCipher, cMAC
		c.rCipher, c.rMAC = sCipher, sMAC
	} else {
		c.wCipher, c.wMAC = sCipher, sMAC
		c.rCipher, c.rMAC = cCipher, cMAC
	}
	// Fresh keys invalidate the cached streaming MAC states.
	c.wHMAC, c.rHMAC = nil, nil
	return nil
}

// expand derives n bytes of key material from the master secret.
func expand(master []byte, label string, n int) []byte {
	out := make([]byte, 0, n)
	counter := byte(0)
	for len(out) < n {
		block := sha1.HMAC(master, append([]byte(label), counter))
		out = append(out, block[:]...)
		counter++
	}
	return out[:n]
}

// --- RSA key wire format ----------------------------------------------------------

func marshalPublicKey(pub *rsa.PublicKey) []byte {
	e := pub.E.Bytes()
	n := pub.N.Bytes()
	out := make([]byte, 0, 4+len(e)+len(n))
	out = append(out, byte(len(e)>>8), byte(len(e)))
	out = append(out, e...)
	out = append(out, byte(len(n)>>8), byte(len(n)))
	out = append(out, n...)
	return out
}

// maxServerKeyBits is the largest RSA modulus a client accepts in a
// ServerHello.
const maxServerKeyBits = 4096

func parsePublicKey(b []byte) (*rsa.PublicKey, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: missing server key", ErrHandshake)
	}
	eLen := int(b[0])<<8 | int(b[1])
	if len(b) < 2+eLen+2 {
		return nil, fmt.Errorf("%w: truncated server key", ErrHandshake)
	}
	e := b[2 : 2+eLen]
	rest := b[2+eLen:]
	nLen := int(rest[0])<<8 | int(rest[1])
	if len(rest) < 2+nLen {
		return nil, fmt.Errorf("%w: truncated server modulus", ErrHandshake)
	}
	pub := &rsa.PublicKey{
		N: bignum.FromBytes(rest[2 : 2+nLen]),
		E: bignum.FromBytes(e),
	}
	// The key sets what the client computes with, so bound it as
	// crypto/rsa's public-key check does: an odd modulus of at most
	// maxServerKeyBits, and an odd exponent with 3 ≤ e < 2^31.
	if !pub.N.IsOdd() || pub.N.BitLen() > maxServerKeyBits {
		return nil, fmt.Errorf("%w: server modulus of %d bits", ErrHandshake, pub.N.BitLen())
	}
	if !pub.E.IsOdd() || pub.E.Cmp(bignum.FromUint64(3)) < 0 || pub.E.BitLen() > 31 {
		return nil, fmt.Errorf("%w: server exponent of %d bits, even or below 3", ErrHandshake, pub.E.BitLen())
	}
	return pub, nil
}
