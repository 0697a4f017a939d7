package main

import (
	"bytes"
	"os"
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

// TestSmokeKeepsCommittedReport: a -smoke run in a directory holding no
// report writes none unless -json names a path, so running the smoke
// at the repo root cannot replace the committed BENCH_load.json.
func TestSmokeKeepsCommittedReport(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	stub := func(loadgen.Config) (*loadgen.Report, error) { return &loadgen.Report{}, nil }

	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke"}, &out, &errOut, stub); code != 0 {
		t.Fatalf("smoke exited %d\n%s", code, errOut.String())
	}
	if _, err := os.Stat("BENCH_load.json"); !os.IsNotExist(err) {
		t.Fatalf("-smoke wrote the default report (stat: %v)", err)
	}
	if code := run([]string{"-smoke", "-json", "BENCH_smoke.json"}, &out, &errOut, stub); code != 0 {
		t.Fatalf("smoke with -json exited %d\n%s", code, errOut.String())
	}
	if _, err := os.Stat("BENCH_smoke.json"); err != nil {
		t.Fatalf("-smoke -json did not write its report: %v", err)
	}
}
