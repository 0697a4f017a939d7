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

func (c *Conn) sendHandshake(body []byte) error {
	c.hs.transcript.Write(body)
	return c.writeRecord(recHandshake, body)
}

func (c *Conn) readHandshake(wantType byte) ([]byte, error) {
	recType, body, err := c.readRecord()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if recType != recHandshake || len(body) == 0 {
		return nil, fmt.Errorf("%w: unexpected record type %#x", ErrHandshake, recType)
	}
	if body[0] != wantType {
		return nil, fmt.Errorf("%w: got message %#x, want %#x", ErrHandshake, body[0], wantType)
	}
	c.hs.transcript.Write(body)
	return body, nil
}

func bitsByte(bits int) byte { return byte(bits / 8) }

// --- client ------------------------------------------------------------------

func (c *Conn) clientHandshake() error {
	cfg := &c.cfg
	hsStart := cfg.Trace.Now()
	c.rng.Fill(c.hs.clientRandom[:])

	hello := []byte{msgClientHello, byte(cfg.Profile), bitsByte(cfg.KeyBits), bitsByte(cfg.BlockBits)}
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
		return fmt.Errorf("%w: sending ClientHello: %v", ErrHandshake, err)
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
	if int(sh[2])*8 != cfg.KeyBits || int(sh[3])*8 != cfg.BlockBits {
		return fmt.Errorf("%w: server negotiated %d/%d, client wanted %d/%d",
			ErrHandshake, int(sh[2])*8, int(sh[3])*8, cfg.KeyBits, cfg.BlockBits)
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
		if err := c.deriveKeys(true); err != nil {
			return err
		}
		if err := c.sendFinished("client finished"); err != nil {
			return err
		}
		if err := c.recvFinished("server finished"); err != nil {
			return err
		}
		if ticketPromised {
			if err := c.recvNewTicket(); err != nil {
				return err
			}
		} else if cfg.Resume != nil {
			// Keep resuming on the same ticket next time.
			c.ticket = append([]byte(nil), cfg.Resume.Ticket...)
		}
		c.emitPhase("client", "finished", true, phaseStart)
		return nil
	}

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
		return fmt.Errorf("%w: sending KeyExchange: %v", ErrHandshake, err)
	}
	phaseStart = c.emitPhase("client", "key_exchange", false, phaseStart)

	if err := c.deriveKeys(true); err != nil {
		return err
	}
	c.secret = c.master
	// Client speaks first under the new keys.
	if err := c.sendFinished("client finished"); err != nil {
		return err
	}
	if err := c.recvFinished("server finished"); err != nil {
		return err
	}
	if ticketPromised {
		if err := c.recvNewTicket(); err != nil {
			return err
		}
	}
	c.emitPhase("client", "finished", false, phaseStart)
	return nil
}

// recvNewTicket reads the sealed NewSessionTicket message the
// ServerHello promised and stores the ticket for Session().
func (c *Conn) recvNewTicket() error {
	recType, body, err := c.readRecord()
	if err != nil {
		return fmt.Errorf("%w: reading NewSessionTicket: %v", ErrHandshake, err)
	}
	if recType != recHandshake {
		return fmt.Errorf("%w: expected NewSessionTicket, got record %#x", ErrHandshake, recType)
	}
	pt, err := c.openRecord(recHandshake, body)
	if err != nil {
		return fmt.Errorf("%w: opening NewSessionTicket: %v", ErrHandshake, err)
	}
	if len(pt) < 3 || pt[0] != msgNewTicket {
		return fmt.Errorf("%w: malformed NewSessionTicket", ErrHandshake)
	}
	n := int(pt[1])<<8 | int(pt[2])
	if n == 0 || n > MaxTicketLen || len(pt) != 3+n {
		return fmt.Errorf("%w: NewSessionTicket length %d", ErrHandshake, n)
	}
	c.ticket = append([]byte(nil), pt[3:3+n]...)
	return nil
}

// sendNewTicket mints a ticket over the session secret and sends it
// sealed under the new keys (server side, after Finished).
func (c *Conn) sendNewTicket() error {
	tkt, err := c.cfg.TicketKeys.Seal(c.secret)
	if err != nil {
		return fmt.Errorf("%w: sealing ticket: %v", ErrHandshake, err)
	}
	body := []byte{msgNewTicket, byte(len(tkt) >> 8), byte(len(tkt))}
	body = append(body, tkt...)
	sealed, err := c.sealRecord(recHandshake, body)
	if err != nil {
		return fmt.Errorf("%w: sealing NewSessionTicket: %v", ErrHandshake, err)
	}
	if err := c.writeRecord(recHandshake, sealed); err != nil {
		return fmt.Errorf("%w: sending NewSessionTicket: %v", ErrHandshake, err)
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
	cfg.KeyBits, cfg.BlockBits = wantKey, wantBlock
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
			cfg.logf("issl: ticket rejected, degrading: %v", err)
		}
	}
	if cachedMaster == nil && offeredSession && cfg.Cache != nil {
		cachedMaster, _ = cfg.Cache.get(offered)
	}

	c.rng.Fill(c.hs.serverRandom[:])
	head := c.helloHead()
	hello := make([]byte, 0, len(head)+randomLen+3+SessionIDLen)
	hello = append(hello, head...)
	hello = append(hello, c.hs.serverRandom[:]...)
	promiseTicket := cfg.TicketKeys != nil
	if cachedMaster != nil {
		// Abbreviated handshake (Goldberg et al. session-key caching,
		// or its stateless ticket form).
		c.resumed = true
		hello = append(hello, 1)
		if viaTicket && !offeredSession {
			hello = append(hello, 0) // no session ID to echo
		} else {
			c.sessionID = offered
			hello = append(hello, SessionIDLen)
			hello = append(hello, offered[:]...)
		}
		if promiseTicket {
			hello = append(hello, 1)
		} else {
			hello = append(hello, 0)
		}
		if err := c.sendHandshake(hello); err != nil {
			return fmt.Errorf("%w: sending ServerHello: %v", ErrHandshake, err)
		}
		phaseStart := c.emitPhase("server", "hello", true, hsStart)
		c.secret = cachedMaster
		c.hs.premaster = cachedMaster
		if err := c.deriveKeys(false); err != nil {
			return err
		}
		if err := c.recvFinished("client finished"); err != nil {
			return err
		}
		if err := c.sendFinished("server finished"); err != nil {
			return err
		}
		if promiseTicket {
			if err := c.sendNewTicket(); err != nil {
				return err
			}
		}
		c.emitPhase("server", "finished", true, phaseStart)
		return nil
	}
	hello = append(hello, 0)
	if cfg.Cache != nil {
		c.rng.Fill(c.sessionID[:])
		hello = append(hello, SessionIDLen)
		hello = append(hello, c.sessionID[:]...)
	} else {
		hello = append(hello, 0)
	}
	if promiseTicket {
		hello = append(hello, 1)
	} else {
		hello = append(hello, 0)
	}
	if cfg.Profile == ProfileUnix {
		hello = append(hello, c.helloPublicKey()...)
	}
	if err := c.sendHandshake(hello); err != nil {
		return fmt.Errorf("%w: sending ServerHello: %v", ErrHandshake, err)
	}
	phaseStart := c.emitPhase("server", "hello", false, hsStart)

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

	if err := c.deriveKeys(false); err != nil {
		return err
	}
	c.secret = c.master
	if cfg.Cache != nil {
		cfg.Cache.put(c.sessionID, c.secret)
	}
	if err := c.recvFinished("client finished"); err != nil {
		return err
	}
	if err := c.sendFinished("server finished"); err != nil {
		return err
	}
	if promiseTicket {
		if err := c.sendNewTicket(); err != nil {
			return err
		}
	}
	c.emitPhase("server", "finished", false, phaseStart)
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

	keyBytes := c.cfg.KeyBits / 8
	cKey := expand(c.master, "c key", keyBytes)
	sKey := expand(c.master, "s key", keyBytes)
	cMAC := expand(c.master, "c mac", sha1.Size)
	sMAC := expand(c.master, "s mac", sha1.Size)

	cCipher, err := cipherFor(cKey, c.cfg.BlockBits)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	sCipher, err := cipherFor(sKey, c.cfg.BlockBits)
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

// --- finished -------------------------------------------------------------------

func (c *Conn) verifyData(label string) []byte {
	digest := sha1.Sum1(c.hs.transcript.Bytes())
	v := sha1.HMAC(c.master, append([]byte(label), digest[:]...))
	return v[:]
}

func (c *Conn) sendFinished(label string) error {
	body := append([]byte{msgFinished}, c.verifyData(label)...)
	sealed, err := c.sealRecord(recHandshake, body)
	if err != nil {
		return fmt.Errorf("%w: sealing Finished: %v", ErrHandshake, err)
	}
	if err := c.writeRecord(recHandshake, sealed); err != nil {
		return fmt.Errorf("%w: sending Finished: %v", ErrHandshake, err)
	}
	c.hs.transcript.Write(body)
	return nil
}

func (c *Conn) recvFinished(label string) error {
	recType, body, err := c.readRecord()
	if err != nil {
		return fmt.Errorf("%w: reading Finished: %v", ErrHandshake, err)
	}
	if recType != recHandshake {
		return fmt.Errorf("%w: expected Finished, got record %#x", ErrHandshake, recType)
	}
	pt, err := c.openRecord(recHandshake, body)
	if err != nil {
		return fmt.Errorf("%w: opening Finished: %v", ErrHandshake, err)
	}
	if len(pt) != 1+sha1.Size || pt[0] != msgFinished {
		return fmt.Errorf("%w: malformed Finished", ErrHandshake)
	}
	want := c.verifyData(label)
	if !constEq(pt[1:], want) {
		return fmt.Errorf("%w: Finished verify mismatch", ErrHandshake)
	}
	c.hs.transcript.Write(pt)
	return nil
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
	n := rest[2 : 2+nLen]
	return &rsa.PublicKey{
		N: bignum.FromBytes(n),
		E: bignum.FromBytes(e),
	}, nil
}
