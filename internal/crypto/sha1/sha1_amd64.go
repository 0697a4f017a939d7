package sha1

// Declarations for the SHA-NI kernel in sha1_amd64.s.

// hasSHANI reports whether the CPU has what blockSHANI runs on: SHA
// (leaf 7 EBX bit 29), SSSE3 (leaf 1 ECX bit 9, PSHUFB) and SSE4.1
// (leaf 1 ECX bit 19, PINSRD/PEXTRD).
var hasSHANI = func() bool {
	ecx1, ebx7 := cpuidSHA()
	return ebx7&(1<<29) != 0 && ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0
}()

// cpuidSHA returns ECX of CPUID leaf 1 and EBX of leaf 7.
func cpuidSHA() (ecx1, ebx7 uint32)

// blockSHANI absorbs p, a whole number of blocks, into h.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)
