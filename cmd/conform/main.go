// Command conform runs the differential conformance matrix: every
// hand-rolled kernel in this repo (crypto, the Rabbit AES in assembly
// and compiled C, the protocol parsers) cross-checked against
// independent oracles. Same seed, same verdict.
//
// Usage:
//
//	conform -seed 1                       # full matrix, text verdict
//	conform -seed 1 -json report.json     # also write the CI artifact
//
// Exit status 0 iff every check passed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/conform"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "seed for all generated vectors (same seed, same run)")
		jsonPath = flag.String("json", "", "also write the JSON report to this file")
	)
	flag.Parse()

	rep := conform.Run(conform.Options{Seed: *seed})
	rep.WriteText(os.Stdout)

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conform: %v\n", err)
			os.Exit(2)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "conform: %v\n", err)
			os.Exit(2)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "conform: %v\n", err)
			os.Exit(2)
		}
	}
	if !rep.Passed {
		os.Exit(1)
	}
}
