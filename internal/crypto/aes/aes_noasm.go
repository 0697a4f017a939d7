//go:build !amd64

package aes

// Without the amd64 kernels every 16-byte-block cipher takes the
// T-table path; the stubs below are never reached.

const hasAESNI = false

func encryptBlockNI(nr int, rk, dst, src *byte)     { panic("aes: no AES-NI kernel") }
func decryptBlockNI(nr int, dk, dst, src *byte)     { panic("aes: no AES-NI kernel") }
func expandDecNI(nr int, ek, dk *byte)              { panic("aes: no AES-NI kernel") }
func encryptCBCNI(nr int, rk, iv *byte, buf []byte) { panic("aes: no AES-NI kernel") }
func decryptCBCNI(nr int, dk, iv *byte, buf []byte) { panic("aes: no AES-NI kernel") }
