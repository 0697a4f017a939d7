// Package prng provides the deterministic pseudo-random generators the
// port needed: Dynamic C "does not provide the standard random
// function" (§5), so the port wrote one. LCG mirrors the classic libc
// rand() the original issl leaned on; Xorshift is the stronger stream
// the library uses for session keys and IVs. Neither is
// cryptographically secure — and neither was what a 2003-era
// public-domain SSL library on an 8-bit microcontroller actually had.
package prng

// LCG is the minimal linear congruential generator a port writes when
// libc's rand() is missing: the ANSI C reference constants.
// The zero value is a valid generator seeded with 1 (like C's rand).
type LCG struct {
	state   uint32
	started bool
}

// NewLCG returns an LCG seeded like srand(seed).
func NewLCG(seed uint32) *LCG { return &LCG{state: seed, started: true} }

// Next returns the next value in [0, 32768), matching ANSI C's
// RAND_MAX = 32767 reference implementation.
func (l *LCG) Next() int {
	if !l.started {
		l.state, l.started = 1, true
	}
	l.state = l.state*1103515245 + 12345
	return int(l.state >> 16 & 0x7fff)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (l *LCG) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return l.Next() % n
}

// Xorshift is a 64-bit xorshift* generator used for key material and
// IVs in the simulated library (deterministic so experiments are
// reproducible run to run).
type Xorshift struct {
	state uint64
}

// NewXorshift seeds the generator; a zero seed is remapped since
// xorshift has an all-zero fixed point.
func NewXorshift(seed uint64) *Xorshift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Xorshift{state: seed}
}

// Next64 returns the next 64-bit value.
func (x *Xorshift) Next64() uint64 {
	s := x.state
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.state = s
	return s * 0x2545f4914f6cdd1d
}

// Fill fills buf with pseudo-random bytes.
func (x *Xorshift) Fill(buf []byte) {
	var w uint64
	for i := range buf {
		if i%8 == 0 {
			w = x.Next64()
		}
		buf[i] = byte(w)
		w >>= 8
	}
}

// Bytes returns n fresh pseudo-random bytes.
func (x *Xorshift) Bytes(n int) []byte {
	b := make([]byte, n)
	x.Fill(b)
	return b
}

// Uint32 returns a 32-bit value.
func (x *Xorshift) Uint32() uint32 { return uint32(x.Next64() >> 32) }

// Intn returns a value in [0, n). It panics if n <= 0.
func (x *Xorshift) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(x.Next64() % uint64(n))
}
