package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/loadgen"
)

// TestSmokeGate runs the -smoke workload live, then replays its report
// with one echo mismatch injected: the clean run must exit 0 and the
// corrupted one 1, so the CI load smoke can fail.
func TestSmokeGate(t *testing.T) {
	var clean *loadgen.Report
	live := func(cfg loadgen.Config) (*loadgen.Report, error) {
		rep, err := loadgen.Run(cfg)
		clean = rep
		return rep, err
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke", "-json", ""}, &out, &errOut, live); code != 0 {
		t.Fatalf("clean smoke exited %d\n%s%s", code, out.String(), errOut.String())
	}
	if clean.Measured.Requests != clean.Plan.Requests {
		t.Fatalf("smoke measured %d requests, planned %d", clean.Measured.Requests, clean.Plan.Requests)
	}

	corrupt := func(loadgen.Config) (*loadgen.Report, error) {
		rep := *clean
		rep.Measured.Requests--
		rep.Measured.Errors++
		rep.Measured.EchoMismatches++
		return &rep, nil
	}
	errOut.Reset()
	if code := run([]string{"-smoke", "-json", ""}, &out, &errOut, corrupt); code != 1 {
		t.Fatalf("smoke with an echo mismatch exited %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "1 echo mismatches") {
		t.Errorf("smoke failure not explained on stderr: %q", errOut.String())
	}
}
