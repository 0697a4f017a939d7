package main

import (
	"regexp"
	"strings"
	"testing"
)

func report(results ...benchResult) *benchReport {
	return &benchReport{Results: results}
}

func TestGate(t *testing.T) {
	re := regexp.MustCompile(`^BenchmarkKernel`)
	base := report(
		benchResult{Name: "BenchmarkKernelA", NsPerOp: 100_000},
		benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 500},
		benchResult{Name: "BenchmarkOther", NsPerOp: 100_000},
	)
	for _, tc := range []struct {
		name                   string
		newRep                 *benchReport
		wantCompared, wantFail int
		wantLine               string // a substring the report must contain
	}{
		{"within threshold", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 120_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 900},
		), 1, 0, "+20.0%  ok"},
		{"regression beyond -max-regress fails", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 130_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 500},
		), 1, 1, "REGRESSION"},
		{"baseline-only rung fails", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 100_000},
		), 1, 1, "(baseline only — MISSING"},
		{"new rung is reported and passes", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 100_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 500},
			benchResult{Name: "BenchmarkKernelNew", NsPerOp: 1e9},
		), 1, 0, "(new — no baseline)"},
		{"rung under -min-ns on both sides is skipped", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 100_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 9_000},
		), 1, 0, "skipped (below 10 µs)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			compared, failed := gate(&out, base, tc.newRep, re, 25)
			if compared != tc.wantCompared || failed != tc.wantFail {
				t.Errorf("gate: compared %d failed %d, want %d and %d",
					compared, failed, tc.wantCompared, tc.wantFail)
			}
			if !strings.Contains(out.String(), tc.wantLine) {
				t.Errorf("report lacks %q:\n%s", tc.wantLine, out.String())
			}
		})
	}
}
