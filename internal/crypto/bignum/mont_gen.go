//go:build ignore

// mont_gen writes mont_unrolled.go: for each fixed width in widths, the
// fused CIOS Montgomery multiply of mont.go with the inner (limb) loop
// fully unrolled and the accumulator held in locals t0…tn, and a
// Montgomery squaring with every loop unrolled. Run it through go
// generate in this directory:
//
//	go generate ./internal/crypto/bignum
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

// widths are the limb counts that get an unrolled kernel: the CRT
// halves of 512-bit (4 limbs) and 1024-bit (8 limbs) RSA keys.
var widths = []int{4, 8}

func main() {
	var b bytes.Buffer
	b.WriteString(`// Code generated by mont_gen.go; DO NOT EDIT.

package bignum

import "math/bits"
`)
	for _, n := range widths {
		mulKernel(&b, n)
		sqrKernel(&b, n)
	}
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("gofmt generated code: %v\n%s", err, b.Bytes())
	}
	if err := os.WriteFile("mont_unrolled.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// mulKernel emits montMul<n>, the n-limb instance of montMulGeneric
// with every access at a constant index.
func mulKernel(b *bytes.Buffer, n int) {
	p := func(format string, args ...any) { fmt.Fprintf(b, format+"\n", args...) }
	p("")
	p("// montMul%d is montMulGeneric for %d-limb moduli; t is unused.", n, n)
	p("func montMul%d(dst, a, bv, m []uint64, n0 uint64, _ []uint64) {", n)
	p("a, bv, m, dst = a[:%d], bv[:%d], m[:%d], dst[:%d]", n, n, n, n)
	p("var %s uint64", list("t%d", n+1))
	p("for _, bi := range bv {")
	// Limb 0: the reduction's low limb cancels to zero by construction.
	p("hi, lo := bits.Mul64(a[0], bi)")
	p("lo, c := bits.Add64(lo, t0, 0)")
	p("c1 := hi + c")
	p("u := lo * n0")
	p("hi, lo2 := bits.Mul64(u, m[0])")
	p("_, c = bits.Add64(lo2, lo, 0)")
	p("c2 := hi + c")
	for j := 1; j < n; j++ {
		p("hi, lo = bits.Mul64(a[%d], bi)", j)
		p("lo, c = bits.Add64(lo, t%d, 0)", j)
		p("hi += c")
		p("lo, c = bits.Add64(lo, c1, 0)")
		p("c1 = hi + c")
		p("hi, lo2 = bits.Mul64(u, m[%d])", j)
		p("lo2, c = bits.Add64(lo2, lo, 0)")
		p("hi += c")
		p("t%d, c = bits.Add64(lo2, c2, 0)", j-1)
		p("c2 = hi + c")
	}
	p("var c3 uint64")
	p("t%d, c = bits.Add64(t%d, c1, 0)", n-1, n)
	p("t%d, c3 = bits.Add64(t%d, c2, 0)", n-1, n-1)
	p("t%d = c + c3", n)
	p("}")
	finalSub(p, seq("t%d", 0, n), fmt.Sprintf("t%d", n))
	p("}")
}

// sqrKernel emits montSqr<n>: dst = a·a·R^-1 mod m in two passes over
// 2n locals s0…s(2n-1). The product pass multiplies each pair a[i]·a[j],
// i < j, once, doubles the sum and adds the squares a[i]²: n(n+1)/2
// multiplies instead of n². The reduction pass then folds u·m in limb
// by limb, carrying its overflow in ext.
func sqrKernel(b *bytes.Buffer, n int) {
	p := func(format string, args ...any) { fmt.Fprintf(b, format+"\n", args...) }
	p("")
	p("// montSqr%d is montMul%d with b = a, which it does not read; t is unused.", n, n)
	p("func montSqr%d(dst, a, _, m []uint64, n0 uint64, _ []uint64) {", n)
	p("a, m, dst = a[:%d], m[:%d], dst[:%d]", n, n, n)
	p("var %s uint64", list("s%d", 2*n))
	p("var hi, lo, c, cc, ext uint64")
	// Cross products: row i adds a[i]·a[j] for j > i at s[i+j] and
	// leaves its carry in s[i+n], which no earlier row has written.
	for i := 0; i < n-1; i++ {
		p("c = 0")
		for j := i + 1; j < n; j++ {
			p("hi, lo = bits.Mul64(a[%d], a[%d])", i, j)
			p("s%d, cc = bits.Add64(s%d, lo, 0)", i+j, i+j)
			p("hi += cc")
			p("s%d, cc = bits.Add64(s%d, c, 0)", i+j, i+j)
			p("c = hi + cc")
		}
		p("s%d = c", i+n)
	}
	// Double them (s0 is still zero), then add the squares on one
	// carry chain; a² < R² leaves no carry out.
	for k := 2*n - 1; k > 1; k-- {
		p("s%d = s%d<<1 | s%d>>63", k, k, k-1)
	}
	p("s1 <<= 1")
	p("c = 0")
	for i := 0; i < n; i++ {
		p("hi, lo = bits.Mul64(a[%d], a[%d])", i, i)
		p("s%d, cc = bits.Add64(s%d, lo, c)", 2*i, 2*i)
		p("s%d, c = bits.Add64(s%d, hi, cc)", 2*i+1, 2*i+1)
	}
	// Reduce: limb i of u·m cancels s[i]; the row's carry lands in
	// s[i+n], and that addition's own carry waits in ext for the next.
	for i := 0; i < n; i++ {
		p("u%d := s%d * n0", i, i)
		p("hi, lo = bits.Mul64(u%d, m[0])", i)
		p("_, cc = bits.Add64(s%d, lo, 0)", i)
		p("c = hi + cc")
		for j := 1; j < n; j++ {
			p("hi, lo = bits.Mul64(u%d, m[%d])", i, j)
			p("s%d, cc = bits.Add64(s%d, lo, 0)", i+j, i+j)
			p("hi += cc")
			p("s%d, cc = bits.Add64(s%d, c, 0)", i+j, i+j)
			p("c = hi + cc")
		}
		p("s%d, ext = bits.Add64(s%d, c, ext)", i+n, i+n)
	}
	finalSub(p, seq("s%d", n, n), "ext")
	p("}")
}

// finalSub emits the kernels' tail. The result, limbs res plus top
// limb top, is below 2m: write result − m to dst unless that borrows,
// else the result itself.
func finalSub(p func(string, ...any), res []string, top string) {
	n := len(res)
	p("var br uint64")
	p("var %s uint64", list("d%d", n))
	for j, r := range res {
		p("d%d, br = bits.Sub64(%s, m[%d], br)", j, r, j)
	}
	p("_, br = bits.Sub64(%s, 0, br)", top)
	p("if br != 0 {")
	p("%s = %s", list("dst[%d]", n), strings.Join(res, ", "))
	p("} else {")
	p("%s = %s", list("dst[%d]", n), list("d%d", n))
	p("}")
}

// seq formats i = from … from+n-1 with format, e.g. seq("t%d", 0, 3)
// is t0, t1, t2.
func seq(format string, from, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(format, from+i)
	}
	return out
}

// list is seq joined into a Go expression list.
func list(format string, n int) string { return strings.Join(seq(format, 0, n), ", ") }
