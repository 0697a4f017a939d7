// Command benchdiff compares two benchmark JSON reports (the format
// written by `go test -benchjson`, see benchjson_test.go) and fails
// when any benchmark regressed beyond a threshold. CI uses it to gate
// the crypto hot-path kernels against the committed baseline:
//
//	go test -run '^$' -bench 'BenchmarkKernel' -benchtime=1x -benchjson BENCH_head.json .
//	go run ./cmd/benchdiff -old BENCH_baseline.json -new BENCH_head.json \
//	    -filter '^BenchmarkKernel' -max-regress 25
//
// A benchmark only in the new report is listed and passes (adding a
// benchmark should not require regenerating the baseline in the same
// change). A baseline benchmark missing from the new report fails the
// run, so a deleted or renamed benchmark cannot silently leave the
// ladder: drop or rename its baseline entry in the same change. The
// threshold applies to ns/op; results faster than minNs (10 µs) on both
// sides are skipped as too small to time reliably at -benchtime=1x.
// A rung that reports allocs/op on both sides also fails when the count
// grows at all: allocations are deterministic, so any rise is real.
//
// -trend switches to history mode: the positional arguments are dated
// reports (the BENCH_head_<date>.json artifacts CI uploads per run),
// and the output is one row per benchmark with its ns/op across every
// report in date order plus the latest-vs-first drift — the
// multi-release view the single-pair gate cannot show:
//
//	go run ./cmd/benchdiff -trend -filter '^BenchmarkKernel' BENCH_head_*.json
//
// Trend mode is informational and always exits 0 when the reports
// parse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

type benchResult struct {
	Name    string             `json:"name"`
	N       int                `json:"n"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type benchReport struct {
	Date      string        `json:"date"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Results   []benchResult `json:"results"`
}

func readReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	var (
		oldPath    = flag.String("old", "", "baseline report (required)")
		newPath    = flag.String("new", "", "candidate report (required)")
		filter     = flag.String("filter", "", "regexp; only matching benchmark names are compared")
		maxRegress = flag.Float64("max-regress", 25, "fail when ns/op grows more than this percent")
		trend      = flag.Bool("trend", false, "history mode: positional args are dated reports; print per-benchmark ns/op trend")
	)
	flag.Parse()
	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if *trend {
		if err := runTrend(flag.Args(), re); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		return
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are both required")
		os.Exit(2)
	}
	oldRep, err := readReport(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRep, err := readReport(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	fmt.Printf("benchdiff: %s (%s) vs %s (%s), max regression %.0f%%\n",
		*oldPath, oldRep.Date, *newPath, newRep.Date, *maxRegress)
	compared, failed := gate(os.Stdout, oldRep, newRep, re, *maxRegress)
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmarks compared (filter too narrow, or empty reports)")
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) regressed beyond %.0f%% or missing from the new report\n", failed, *maxRegress)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d benchmark(s) within threshold\n", compared)
}

// minNs is the ns/op below which a one-iteration result is too noisy to
// gate on.
const minNs = 10_000

// gate compares every filter-matching benchmark of newRep against
// oldRep and writes one line per benchmark to w. It returns how many
// were timed on both sides and how many failed: a benchmark that
// regressed by more than maxRegress percent, one whose allocs/op
// (reported on both sides) grew, or a baseline benchmark missing from
// newRep. Benchmarks faster than minNs on both sides are skipped on
// time, not on allocations; benchmarks only in newRep are listed and
// pass.
func gate(w io.Writer, oldRep, newRep *benchReport, re *regexp.Regexp, maxRegress float64) (compared, failed int) {
	oldBy := map[string]benchResult{}
	for _, r := range oldRep.Results {
		oldBy[r.Name] = r
	}
	var names []string
	newBy := map[string]benchResult{}
	for _, r := range newRep.Results {
		newBy[r.Name] = r
		names = append(names, r.Name)
	}
	sort.Strings(names)

	for _, name := range names {
		if re != nil && !re.MatchString(name) {
			continue
		}
		nw := newBy[name]
		od, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(w, "  %-44s %12.0f ns/op  (new — no baseline)\n", name, nw.NsPerOp)
			continue
		}
		if od.NsPerOp <= 0 || nw.NsPerOp <= 0 {
			fmt.Fprintf(w, "  %-44s (no timing on one side, skipped)\n", name)
			continue
		}
		pct := (nw.NsPerOp - od.NsPerOp) / od.NsPerOp * 100
		status := "ok"
		if od.NsPerOp < minNs && nw.NsPerOp < minNs {
			status = "skipped (below 10 µs)"
		} else {
			compared++
			if pct > maxRegress {
				status = "REGRESSION"
				failed++
			}
		}
		fmt.Fprintf(w, "  %-44s %12.0f -> %-12.0f ns/op  %+7.1f%%  %s\n",
			name, od.NsPerOp, nw.NsPerOp, pct, status)
		oa, okOld := od.Metrics["allocs/op"]
		na, okNew := nw.Metrics["allocs/op"]
		if okOld && okNew {
			allocStatus := "ok"
			if na > oa {
				allocStatus = "ALLOCS GREW"
				if status != "REGRESSION" { // a time regression already counted
					failed++
				}
			}
			fmt.Fprintf(w, "  %-44s %12.0f -> %-12.0f allocs/op  %s\n", name, oa, na, allocStatus)
		}
	}
	for _, r := range oldRep.Results {
		if re != nil && !re.MatchString(r.Name) {
			continue
		}
		if _, ok := newBy[r.Name]; !ok {
			fmt.Fprintf(w, "  %-44s (baseline only — MISSING from new report)\n", r.Name)
			failed++
		}
	}
	return compared, failed
}

// runTrend renders the history table: one column per dated report
// (sorted by the report's own date stamp, filename as tiebreaker), one
// row per benchmark, ns/op in each cell, and the latest-vs-first drift
// at the end of the row. A benchmark missing from a report (added or
// retired mid-history) renders as "-".
func runTrend(paths []string, re *regexp.Regexp) error {
	if len(paths) < 1 {
		return fmt.Errorf("-trend needs at least one report argument (e.g. BENCH_head_*.json)")
	}
	type dated struct {
		path string
		rep  *benchReport
	}
	reports := make([]dated, 0, len(paths))
	for _, p := range paths {
		r, err := readReport(p)
		if err != nil {
			return err
		}
		reports = append(reports, dated{p, r})
	}
	sort.SliceStable(reports, func(i, j int) bool {
		if reports[i].rep.Date != reports[j].rep.Date {
			return reports[i].rep.Date < reports[j].rep.Date
		}
		return reports[i].path < reports[j].path
	})

	// Column headers: the date stamp, disambiguated by filename when two
	// reports share a date.
	heads := make([]string, len(reports))
	seen := map[string]int{}
	for i, d := range reports {
		h := d.rep.Date
		if h == "" {
			h = d.path
		}
		seen[h]++
		if seen[h] > 1 {
			h = fmt.Sprintf("%s#%d", h, seen[h])
		}
		heads[i] = h
	}

	byName := make([]map[string]benchResult, len(reports))
	nameSet := map[string]bool{}
	for i, d := range reports {
		byName[i] = map[string]benchResult{}
		for _, r := range d.rep.Results {
			if re != nil && !re.MatchString(r.Name) {
				continue
			}
			byName[i][r.Name] = r
			nameSet[r.Name] = true
		}
	}
	var names []string
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no benchmarks matched across %d report(s)", len(reports))
	}

	fmt.Printf("benchdiff trend: %d report(s), ns/op per benchmark\n", len(reports))
	fmt.Printf("  %-44s", "")
	for _, h := range heads {
		fmt.Printf(" %14s", h)
	}
	fmt.Printf("  %10s\n", "drift")
	for _, name := range names {
		fmt.Printf("  %-44s", name)
		var first, last float64
		cells := 0
		for i := range reports {
			r, ok := byName[i][name]
			if !ok || r.NsPerOp <= 0 {
				fmt.Printf(" %14s", "-")
				continue
			}
			fmt.Printf(" %14.0f", r.NsPerOp)
			if first == 0 {
				first = r.NsPerOp
			}
			last = r.NsPerOp
			cells++
		}
		if cells > 1 {
			fmt.Printf("  %+9.1f%%\n", (last-first)/first*100)
		} else {
			fmt.Printf("  %10s\n", "-")
		}
	}
	return nil
}
