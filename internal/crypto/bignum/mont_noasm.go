//go:build !amd64

package bignum

// Without the amd64 kernels every width runs montMulGeneric; the stubs
// below are never reached.

var hasADX = false

func montMul4ADX(dst, a, b, m []uint64, n0 uint64, t []uint64) { panic("bignum: no ADX kernel") }
func montMul8ADX(dst, a, b, m []uint64, n0 uint64, t []uint64) { panic("bignum: no ADX kernel") }
func montSqr8ADX(dst, a, b, m []uint64, n0 uint64, t []uint64) { panic("bignum: no ADX kernel") }
func montMulADX(dst, a, b, m []uint64, n0 uint64, t []uint64)  { panic("bignum: no ADX kernel") }
