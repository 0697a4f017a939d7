package conform

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Result is one check's outcome.
type Result struct {
	Name       string   `json:"name"`
	Layer      string   `json:"layer"` // crypto | isa | protocol
	Vectors    int      `json:"vectors"`
	Mismatches int      `json:"mismatches"`
	Detail     []string `json:"detail,omitempty"` // first few disagreements
	Err        string   `json:"err,omitempty"`
	ElapsedMS  float64  `json:"elapsed_ms"`
}

// Pass reports whether the check found no disagreement and no error.
func (r *Result) Pass() bool { return r.Mismatches == 0 && r.Err == "" }

// Report is the full matrix verdict: one row per check, one bottom
// line for CI and humans alike.
type Report struct {
	Seed    uint64   `json:"seed"`
	Results []Result `json:"results"`

	TotalVectors    int  `json:"total_vectors"`
	TotalMismatches int  `json:"total_mismatches"`
	Passed          bool `json:"passed"`
}

func (r *Report) finalize() {
	r.Passed = true
	for i := range r.Results {
		r.TotalVectors += r.Results[i].Vectors
		r.TotalMismatches += r.Results[i].Mismatches
		if !r.Results[i].Pass() {
			r.Passed = false
		}
	}
}

// WriteJSON emits the machine-readable report (the CI artifact).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human verdict table.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "conformance matrix (seed %d)\n", r.Seed)
	fmt.Fprintf(w, "%-10s %-24s %9s %10s %9s  %s\n",
		"LAYER", "CHECK", "VECTORS", "MISMATCH", "MS", "VERDICT")
	for i := range r.Results {
		res := &r.Results[i]
		verdict := "ok"
		if !res.Pass() {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%-10s %-24s %9d %10d %9.1f  %s\n",
			res.Layer, res.Name, res.Vectors, res.Mismatches, res.ElapsedMS, verdict)
		for _, d := range res.Detail {
			fmt.Fprintf(w, "    ! %s\n", d)
		}
		if res.Err != "" {
			fmt.Fprintf(w, "    ! error: %s\n", res.Err)
		}
	}
	line := strings.Repeat("-", 72)
	fmt.Fprintln(w, line)
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%s: %d vectors, %d mismatches across %d checks\n",
		verdict, r.TotalVectors, r.TotalMismatches, len(r.Results))
}
