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
		benchResult{Name: "BenchmarkKernelAllocs", NsPerOp: 100_000, Metrics: map[string]float64{"allocs/op": 4}},
	)
	allocs := func(ns, n float64) benchResult {
		return benchResult{Name: "BenchmarkKernelAllocs", NsPerOp: ns, Metrics: map[string]float64{"allocs/op": n}}
	}
	for _, tc := range []struct {
		name                   string
		newRep                 *benchReport
		wantCompared, wantFail int
		wantLine               string // a substring the report must contain
	}{
		{"within threshold", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 120_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 900},
			allocs(100_000, 4),
		), 2, 0, "+20.0%  ok"},
		{"allocs/op growth fails", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 100_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 500},
			allocs(90_000, 5),
		), 2, 1, "4 -> 5            allocs/op  ALLOCS GREW"},
		{"fewer allocs/op passes", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 100_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 500},
			allocs(100_000, 2),
		), 2, 0, "4 -> 2            allocs/op  ok"},
		{"allocs/op growth and time regression count once", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 100_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 500},
			allocs(200_000, 9),
		), 2, 1, "ALLOCS GREW"},
		{"regression beyond -max-regress fails", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 130_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 500},
			allocs(100_000, 4),
		), 2, 1, "REGRESSION"},
		{"baseline-only rung fails", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 100_000},
		), 1, 2, "(baseline only — MISSING"},
		{"new rung is reported and passes", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 100_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 500},
			benchResult{Name: "BenchmarkKernelNew", NsPerOp: 1e9},
			allocs(100_000, 4),
		), 2, 0, "(new — no baseline)"},
		{"rung under -min-ns on both sides is skipped", report(
			benchResult{Name: "BenchmarkKernelA", NsPerOp: 100_000},
			benchResult{Name: "BenchmarkKernelTiny", NsPerOp: 9_000},
			allocs(100_000, 4),
		), 2, 0, "skipped (below 10 µs)"},
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
