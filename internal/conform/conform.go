// Package conform is the differential conformance subsystem: it
// mechanically cross-checks every hand-rolled component in this repo
// against an independent oracle, turning the paper's own methodology —
// §6 validates the hand-coded Rabbit AES by diffing its ciphertext
// against the compiled C port — into a regression-tested property of
// the whole stack.
//
// Three layers are covered:
//
//   - crypto: internal/crypto/{aes,sha1,rsa,bignum,prng} fuzzed
//     differentially against crypto/aes, crypto/sha1, crypto/rsa,
//     crypto/hmac and math/big, plus checked-in FIPS-197 / NIST golden
//     vectors (testdata/).
//   - isa: the hand-written Rabbit assembly AES and the dcc-compiled C
//     AES run on the CPU simulator and are diffed block-by-block
//     against the Go reference AND the stdlib — the paper's §6
//     equivalence claim as a repeatable test.
//   - protocol: seeded no-panic sweeps over the issl handshake, the
//     tcpip ingress path and the dcc compiler front end (the in-package
//     native fuzz targets go deeper; these sweeps make the conformance
//     verdict self-contained).
//
// All vector generation draws from math/rand with an explicit seed —
// deliberately NOT internal/crypto/prng, which is itself under test —
// so a run is reproducible from its seed and no kernel ever vouches
// for itself.
package conform

import (
	"fmt"
	"math/rand"
	"time"
)

// Options parameterizes a conformance run. The vector budgets are
// fixed; only the package's tests shrink them. Run remaps a zero budget
// to its default.
type Options struct {
	// Seed drives every generated vector. Same seed, same run.
	Seed uint64
	// cryptoVectors is the differential-vector budget per crypto kernel
	// (aes, sha1, rsa, bignum, prng). Default 10000.
	cryptoVectors int
	// isaPairs is the number of random key/plaintext pairs pushed
	// through the asm/C/Go/stdlib AES cosimulation. Default 8.
	isaPairs int
	// isaChain is the chained-block depth per cosimulation pair
	// (output feeding input, the paper's §6 workload). Default 3.
	isaChain int
	// protoVectors is the input budget per protocol sweep. Default 2000.
	protoVectors int
}

func (o Options) withDefaults() Options {
	if o.cryptoVectors <= 0 {
		o.cryptoVectors = 10000
	}
	if o.isaPairs <= 0 {
		o.isaPairs = 8
	}
	if o.isaChain <= 0 {
		o.isaChain = 3
	}
	if o.protoVectors <= 0 {
		o.protoVectors = 2000
	}
	return o
}

// checkCtx accumulates one check's outcome. Checks call vector() per
// differential comparison and failf() per disagreement; a panic inside
// a check is caught by the runner and recorded as an error.
type checkCtx struct {
	rng        *rand.Rand
	budget     int // vector budget the check should aim for
	vectors    int
	mismatches int
	detail     []string
	err        error
}

const maxDetail = 8

func (c *checkCtx) vector() { c.vectors++ }

func (c *checkCtx) failf(format string, args ...any) {
	c.mismatches++
	if len(c.detail) < maxDetail {
		c.detail = append(c.detail, fmt.Sprintf(format, args...))
	}
}

// expect is the common compare-and-report helper: got must equal want.
func (c *checkCtx) expect(got, want []byte, format string, args ...any) {
	c.vector()
	if !bytesEqual(got, want) {
		c.failf("%s: got %x, want %x", fmt.Sprintf(format, args...), got, want)
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// check is one named conformance check.
type check struct {
	name   string
	layer  string
	budget func(Options) int
	fn     func(*checkCtx)
}

// suite enumerates the full matrix. Golden-vector checks have a fixed
// small budget (their vector count is the size of the published set);
// differential checks get the per-kernel budget.
func suite(opt Options) []check {
	cryptoN := func(o Options) int { return o.cryptoVectors }
	fixed := func(int) func(Options) int { return func(Options) int { return 0 } }
	return []check{
		{"aes/differential", "crypto", cryptoN, checkAESDifferential},
		{"aes/golden-fips197", "crypto", fixed(0), checkAESGolden},
		{"sha1/differential", "crypto", cryptoN, checkSHA1Differential},
		{"sha1/golden-nist", "crypto", fixed(0), checkSHA1Golden},
		{"rsa/differential", "crypto", cryptoN, checkRSADifferential},
		{"bignum/differential", "crypto", cryptoN, checkBignumDifferential},
		{"prng/differential", "crypto", cryptoN, checkPRNGDifferential},
		{"prng/golden-ansi-c", "crypto", fixed(0), checkPRNGGolden},
		{"isa/aes-cosim", "isa", func(o Options) int { return o.isaPairs }, nil}, // bound at Run
		{"proto/issl-handshake", "protocol", func(o Options) int { return o.protoVectors }, checkISSLHandshakeSweep},
		{"proto/issl-ticket", "protocol", func(o Options) int { return o.protoVectors }, checkISSLTicketSeal},
		{"proto/tcpip-ingress", "protocol", func(o Options) int { return o.protoVectors }, checkTCPIPIngressSweep},
		{"proto/dcc-compile", "protocol", func(o Options) int { return o.protoVectors }, checkDCCCompileSweep},
	}
}

// Run executes the full conformance matrix and returns the report.
func Run(opt Options) *Report {
	opt = opt.withDefaults()
	rep := &Report{Seed: opt.Seed}
	for i, ck := range suite(opt) {
		fn := ck.fn
		if fn == nil { // the ISA check needs the chain depth too
			chain := opt.isaChain
			fn = func(c *checkCtx) { checkISACosim(c, chain) }
		}
		// Per-check sub-seed: checks stay independent of one another, so
		// raising one budget does not shift another check's vectors.
		ctx := &checkCtx{
			rng:    rand.New(rand.NewSource(int64(opt.Seed) + int64(i)*0x9e37)),
			budget: ck.budget(opt),
		}
		start := time.Now()
		runGuarded(ctx, fn)
		rep.Results = append(rep.Results, Result{
			Name:       ck.name,
			Layer:      ck.layer,
			Vectors:    ctx.vectors,
			Mismatches: ctx.mismatches,
			Detail:     ctx.detail,
			Err:        errString(ctx.err),
			ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	rep.finalize()
	return rep
}

// runGuarded isolates a check: a panic becomes a recorded error plus a
// mismatch, never a crashed run (the verdict must always be emitted).
func runGuarded(ctx *checkCtx, fn func(*checkCtx)) {
	defer func() {
		if r := recover(); r != nil {
			ctx.err = fmt.Errorf("check panicked: %v", r)
			ctx.failf("panic: %v", r)
		}
	}()
	fn(ctx)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
