//go:build !unix

package core

import "time"

var processStart = time.Now()

// processCPU falls back to elapsed wall time where getrusage is not
// available.
func processCPU() time.Duration { return time.Since(processStart) }
