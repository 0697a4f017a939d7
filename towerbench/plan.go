package main

import "repro/internal/crypto/prng"

// The plan is everything the seed decides: per connection, a stream of
// requests with their payload sizes and reconnect/resume decisions, and
// for rabbit-aes the keys and plaintexts. The program under test sees
// only these generated inputs; nothing else in a run depends on the seed.

// sizeWeight is one entry of a weighted payload-size distribution.
type sizeWeight struct{ size, weight int }

// req is one planned request on one client connection.
type req struct {
	payload   int  // bytes to echo
	reconnect bool // close the previous connection and dial a new one
	newClient bool // the dial belongs to a new client: no session to offer
	offer     bool // offer the cached session for resumption
}

// planStream yields one connection's requests. It is endless: a run
// takes as many as fit in its time window, and the same seed always
// yields the same sequence.
type planStream struct {
	wl  *netWorkload
	rng *prng.Xorshift
	n   int // requests generated so far
}

func newPlanStream(wl *netWorkload, seed uint64, conn int) *planStream {
	return &planStream{wl: wl, rng: prng.NewXorshift(mixSeed(seed, uint64(conn)+1))}
}

func (p *planStream) next() req {
	wl := p.wl
	r := req{payload: pickSize(p.rng, wl.payloads)}
	switch {
	case p.n == 0:
		r.reconnect, r.newClient = true, true
	case wl.reconnectEvery:
		r.reconnect = true
		r.newClient = wl.clientRequests > 0 && p.n%wl.clientRequests == 0
		r.offer = !r.newClient && p.rng.Intn(1000) < wl.resumePermille
	}
	p.n++
	return r
}

func pickSize(rng *prng.Xorshift, dist []sizeWeight) int {
	total := 0
	for _, d := range dist {
		total += d.weight
	}
	x := rng.Intn(total)
	for _, d := range dist {
		if x < d.weight {
			return d.size
		}
		x -= d.weight
	}
	return dist[len(dist)-1].size
}

// aesInput is one rabbit-aes request: a key and a first plaintext block.
type aesInput struct{ key, block [16]byte }

type aesStream struct{ rng *prng.Xorshift }

func newAESStream(seed uint64) *aesStream {
	return &aesStream{rng: prng.NewXorshift(mixSeed(seed, 0xAE5))}
}

func (s *aesStream) next() aesInput {
	var in aesInput
	s.rng.Fill(in.key[:])
	s.rng.Fill(in.block[:])
	return in
}

// mixSeed derives a non-zero stream seed from the run seed and a
// stream index (splitmix64 finaliser), so neighbouring seeds give
// unrelated streams.
func mixSeed(seed, stream uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
