package repro

// Host-side kernel benchmarks — the CI perf regression gate. Every
// BenchmarkKernel* here times one of the hot paths a perf rewrite
// touched (T-table AES-CBC, unrolled SHA-1, streaming HMAC,
// Montgomery/CRT RSA, 1024-bit modexp, the full handshake, the issl
// record path, the Rabbit simulator's decoder) and reports through
// record(), so `-benchjson` captures them next to the paper
// experiments. CI runs them with -benchtime=1x and diffs the result
// against the committed BENCH_baseline.json via cmd/benchdiff; each
// op is sized to take hundreds of microseconds so a single iteration
// is still a stable measurement.

import (
	"net"
	"testing"

	"repro/internal/aesasm"
	"repro/internal/aesc"
	"repro/internal/core"
	"repro/internal/crypto/aes"
	"repro/internal/crypto/bignum"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
	"repro/internal/issl"
	"repro/internal/race"
)

const kernelBufLen = 64 * 1024

func kernelBuf() []byte {
	buf := make([]byte, kernelBufLen)
	prng.NewXorshift(0xBEEF).Fill(buf)
	return buf
}

// cbcPasses is how many times one AES-CBC op runs over the 64 KiB
// buffer. With AES-NI a single decrypt pass takes ~8 µs, under
// cmd/benchdiff's 10 µs floor, so one pass per op would leave the rung
// ungated; both CBC rungs use the same count to stay comparable.
const cbcPasses = 16

// BenchmarkKernelAESCBCEncrypt drives the whole-buffer in-place CBC
// fast path, cbcPasses times over 64 KiB per op — the shape of a large
// issl record flush.
func BenchmarkKernelAESCBCEncrypt(b *testing.B) {
	c, err := aes.NewAES(kernelBuf()[:16])
	if err != nil {
		b.Fatal(err)
	}
	buf := kernelBuf()
	iv := make([]byte, 16)
	c.EncryptCBCInPlace(iv, buf) // warm caches; 1x CI runs time steady state
	b.SetBytes(cbcPasses * kernelBufLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < cbcPasses; p++ {
			if err := c.EncryptCBCInPlace(iv, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	record(b, nil)
}

// BenchmarkKernelAESCBCDecrypt is the receive-side mirror.
func BenchmarkKernelAESCBCDecrypt(b *testing.B) {
	c, err := aes.NewAES(kernelBuf()[:16])
	if err != nil {
		b.Fatal(err)
	}
	buf := kernelBuf()
	iv := make([]byte, 16)
	c.DecryptCBCInPlace(iv, buf) // warm caches
	b.SetBytes(cbcPasses * kernelBufLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < cbcPasses; p++ {
			if err := c.DecryptCBCInPlace(iv, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	record(b, nil)
}

// BenchmarkKernelSHA1 hashes 64 KiB per op through the unrolled
// compress.
func BenchmarkKernelSHA1(b *testing.B) {
	buf := kernelBuf()
	_ = sha1.Sum1(buf) // warm caches
	b.SetBytes(kernelBufLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sha1.Sum1(buf)
	}
	record(b, nil)
}

// BenchmarkKernelHMACSHA1 streams 64 KiB per op through a reused
// HMACState — the record-MAC shape, where the pad state is computed
// once and every record reuses it.
func BenchmarkKernelHMACSHA1(b *testing.B) {
	buf := kernelBuf()
	var st sha1.HMACState
	st.Init(buf[:20])
	var sum [sha1.Size]byte
	st.Write(buf) // warm caches
	st.SumInto(&sum)
	b.SetBytes(kernelBufLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset()
		st.Write(buf)
		st.SumInto(&sum)
	}
	record(b, nil)
}

// kernelAllocs measures op's heap allocations, once the timed loop is
// over, as the allocs/op metric the handshake-plane rungs carry in
// BENCH_baseline.json.
func kernelAllocs(b *testing.B, op func()) map[string]float64 {
	b.StopTimer()
	b.ReportAllocs()
	return map[string]float64{"allocs/op": testing.AllocsPerRun(3, op)}
}

// BenchmarkKernelRSASign times a 512-bit private-key operation — the
// per-full-handshake cost — through the CRT + Montgomery path (4-limb
// CRT halves).
func BenchmarkKernelRSASign(b *testing.B) {
	key, err := rsa.GenerateKey(prng.NewXorshift(0xCAFE), 512)
	if err != nil {
		b.Fatal(err)
	}
	digest := kernelBuf()[:20]
	sign := func() {
		if _, err := key.SignRaw(digest); err != nil {
			b.Fatal(err)
		}
	}
	sign() // prime the lazy CRT precompute
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sign()
	}
	record(b, kernelAllocs(b, sign))
}

// BenchmarkKernelRSADecrypt1024 times the full-handshake server's
// private op: DecryptPKCS1 of a premaster under a 1024-bit key, whose
// CRT halves are 8-limb exponentiations.
func BenchmarkKernelRSADecrypt1024(b *testing.B) {
	key, err := rsa.GenerateKey(prng.NewXorshift(0xF00D), 1024)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := key.PublicKey.EncryptPKCS1(prng.NewXorshift(1), kernelBuf()[:48])
	if err != nil {
		b.Fatal(err)
	}
	decrypt := func() {
		if _, err := key.DecryptPKCS1(ct); err != nil {
			b.Fatal(err)
		}
	}
	decrypt() // prime the lazy CRT precompute
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decrypt()
	}
	record(b, kernelAllocs(b, decrypt))
}

// BenchmarkKernelModExp1024 times one 1024-bit modular exponentiation
// (odd modulus, so the Montgomery path; 16 limbs, no CRT) in
// isolation.
func BenchmarkKernelModExp1024(b *testing.B) {
	buf := kernelBuf()
	x := bignum.FromBytes(buf[:128])
	e := bignum.FromBytes(buf[128:256])
	mb := append([]byte(nil), buf[256:384]...)
	mb[0] |= 0x80      // full width
	mb[len(mb)-1] |= 1 // odd
	m := bignum.FromBytes(mb)
	exp := func() { _ = x.ModExp(e, m) }
	exp() // warm caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp()
	}
	record(b, kernelAllocs(b, exp))
}

// BenchmarkKernelModExp512 times one 8-limb Montgomery exponentiation
// with a full 512-bit exponent: one CRT half of the RSA-1024 private
// op, without the padding and recombination around it. Its 508
// squarings and ~140 multiplies run on the kernels newMontCtx picks for
// 8 limbs (MULX/ADX assembly where the CPU has it); ns/kernel divides
// the op by that kernel-call count.
func BenchmarkKernelModExp512(b *testing.B) {
	buf := kernelBuf()
	x := bignum.FromBytes(buf[:64])
	e := bignum.FromBytes(buf[64:128])
	mb := append([]byte(nil), buf[128:192]...)
	mb[0] |= 0x80      // full width
	mb[len(mb)-1] |= 1 // odd
	m := bignum.FromBytes(mb)
	x = x.Mod(m)
	exp := func() { _ = x.ModExp(e, m) }
	exp() // warm caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp()
	}
	b.StopTimer()
	metrics := kernelAllocs(b, exp)
	metrics["ns/kernel"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(montKernelCalls(e))
	record(b, metrics)
}

// montKernelCalls counts the Montgomery kernel calls of a windowed
// exponentiation by e (64 bits or more): 14 to fill the table, 4
// squarings per nibble below the top one plus a multiply per nonzero
// one, and the two conversions in and out of Montgomery form.
func montKernelCalls(e bignum.Int) int {
	nibbles := (e.BitLen() + 3) / 4
	calls := 14 + 2 + 4*(nibbles-1)
	for i := 0; i < nibbles-1; i++ {
		if e.Bit(4*i)|e.Bit(4*i+1)|e.Bit(4*i+2)|e.Bit(4*i+3) != 0 {
			calls++
		}
	}
	return calls
}

// BenchmarkKernelFullHandshake times one complete Unix-profile
// handshake — ClientHello through Finished, RSA key exchange included
// — over an in-process pipe. This is the per-connection setup cost the
// stampede scenario multiplies by N. The server marshals its public
// key into every full ServerHello, as each redirector handshake does.
func BenchmarkKernelFullHandshake(b *testing.B) {
	key, err := rsa.GenerateKey(prng.NewXorshift(0xD00D), 512)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := key.SignRaw(kernelBuf()[:20]); err != nil { // prime the lazy CRT precompute
		b.Fatal(err)
	}
	srvCfg := issl.Config{Profile: issl.ProfileUnix, ServerKey: key}
	handshake := func(i int) {
		ct, st := net.Pipe()
		done := make(chan error, 1)
		go func() {
			cfg := srvCfg
			cfg.Rand = prng.NewXorshift(uint64(2*i + 1))
			_, err := issl.BindServer(st, cfg)
			done <- err
		}()
		_, err := issl.BindClient(ct, issl.Config{Profile: issl.ProfileUnix,
			Rand: prng.NewXorshift(uint64(2*i + 2))})
		if err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		ct.Close()
		st.Close()
	}
	handshake(0) // warm caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handshake(i + 1)
	}
	record(b, kernelAllocs(b, func() { handshake(0) }))
}

// BenchmarkKernelRecordPath pumps 16 KiB per op through an
// established issl connection pair — seal, wire, open, echo back.
// This is the end-to-end record path the zero-alloc rewrite targets.
func BenchmarkKernelRecordPath(b *testing.B) {
	key, err := rsa.GenerateKey(prng.NewXorshift(0xD00D), 512)
	if err != nil {
		b.Fatal(err)
	}
	ct, st := net.Pipe()
	done := make(chan error, 1)
	var server *issl.Conn
	go func() {
		var err error
		server, err = issl.BindServer(st, issl.Config{Profile: issl.ProfileUnix,
			ServerKey: key, Rand: prng.NewXorshift(11)})
		done <- err
	}()
	client, err := issl.BindClient(ct, issl.Config{Profile: issl.ProfileUnix,
		Rand: prng.NewXorshift(10)})
	if err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	const chunk = 16 * 1024
	payload := kernelBuf()[:chunk]
	sink := make([]byte, chunk)
	echoErr := make(chan error, 1)
	go func() {
		buf := make([]byte, chunk)
		for {
			n, err := server.Read(buf)
			if err != nil {
				echoErr <- err
				return
			}
			if _, err := server.Write(buf[:n]); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	roundTrip := func() {
		if _, err := client.Write(payload); err != nil {
			b.Fatal(err)
		}
		for got := 0; got < chunk; {
			n, err := client.Read(sink[got:])
			if err != nil {
				b.Fatal(err)
			}
			got += n
		}
	}
	roundTrip() // warm the pooled record buffers and per-conn scratch
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	record(b, nil)
	// Tear down the raw pipe ends rather than issl Close: close-notify
	// over a synchronous net.Pipe would have both sides blocked writing
	// with nobody left reading.
	ct.Close()
	st.Close()
}

// BenchmarkKernelRabbitAES times one rabbit-aes request on the Rabbit
// simulator: an 8-block chain of the hand-written assembly AES and a
// 1-block chain of the dcc-compiled C AES with every optimization, as
// the towerbench rabbit-aes workload runs them. Every op retires the
// same simulated instructions, so ns/op moves only with the
// interpreter's speed; Minstr/s and Mcycle/s report that speed in the
// simulator's own units.
func BenchmarkKernelRabbitAES(b *testing.B) {
	asm, err := aesasm.Load()
	if err != nil {
		b.Fatal(err)
	}
	c, err := aesc.Build(core.E2Configs[len(core.E2Configs)-1].Opt)
	if err != nil {
		b.Fatal(err)
	}
	var key, block [16]byte
	copy(key[:], kernelBuf()[:16])
	copy(block[:], kernelBuf()[16:32])
	var instr, cycles uint64
	request := func() {
		_, asmCyc, err := asm.EncryptChain(key, block, 8)
		if err != nil {
			b.Fatal(err)
		}
		_, cCyc, err := c.EncryptChain(key, block, 1)
		if err != nil {
			b.Fatal(err)
		}
		instr += asm.CPU().Instructions + c.CPU().Instructions
		cycles += asmCyc + cCyc
	}
	request() // warm caches
	if allocs := testing.AllocsPerRun(3, request); allocs != 0 && !race.Enabled {
		b.Fatalf("rabbit-aes request allocates %.1f per op, want 0", allocs)
	}
	instr, cycles = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	record(b, map[string]float64{
		"Minstr/s": float64(instr) / 1e6 / secs,
		"Mcycle/s": float64(cycles) / 1e6 / secs,
	})
}
