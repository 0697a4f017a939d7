package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestE1RatioIsCoreE1 pins one E1 number: the ratio rmcsim -e1 prints
// is core.RunE1's Factor, for the same build and per-block arithmetic.
func TestE1RatioIsCoreE1(t *testing.T) {
	var out bytes.Buffer
	if err := runE1(&out, 2, true, "", 3); err != nil {
		t.Fatal(err)
	}
	res, err := core.RunE1()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("  ratio:    %.2fx\n", res.Factor)
	if !strings.Contains(out.String(), want) {
		t.Errorf("rmcsim -e1 output lacks %q (core.RunE1 factor %.4f):\n%s", want, res.Factor, out.String())
	}
	if !strings.Contains(out.String(), "--- C profile") {
		t.Errorf("-profile printed no C profile:\n%s", out.String())
	}
}
