package aes

// Declarations for the AES-NI kernels in aes_amd64.s. Every pointer
// argument is read or written only for the length of the call.

// hasAESNI reports whether the CPU has AES-NI.
var hasAESNI = cpuidECX1()&(1<<25) != 0

// cpuidECX1 returns ECX of CPUID leaf 1 (bit 25: AES-NI).
func cpuidECX1() uint32

//go:noescape
func encryptBlockNI(nr int, rk, dst, src *byte)

//go:noescape
func decryptBlockNI(nr int, dk, dst, src *byte)

//go:noescape
func expandDecNI(nr int, ek, dk *byte)

//go:noescape
func encryptCBCNI(nr int, rk, iv *byte, buf []byte)

//go:noescape
func decryptCBCNI(nr int, dk, iv *byte, buf []byte)
