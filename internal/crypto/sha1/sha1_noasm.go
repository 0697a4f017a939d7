//go:build !amd64

package sha1

// Without the amd64 kernel compress always runs the Go rounds; the
// stub below is never reached.

const hasSHANI = false

func blockSHANI(h *[5]uint32, p []byte) { panic("sha1: no SHA-NI kernel") }
