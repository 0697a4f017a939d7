// Command experiments regenerates every table in the paper's
// evaluation (§6) plus the service-level results, printing them in the
// layout EXPERIMENTS.md records.
//
// Usage:
//
//	experiments [e1|e2|e3|e4|e5 ...]
//
// With no arguments, all experiments run in order.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
)

// e4Bytes is the payload each E4 throughput run echoes.
const e4Bytes = 256 * 1024

func main() {
	which := os.Args[1:]
	if len(which) == 0 {
		which = []string{"e1", "e2", "e3", "e4", "e5"}
	}
	for _, w := range which {
		var err error
		switch w {
		case "e1":
			err = runE1()
		case "e2":
			err = runE2()
		case "e3":
			err = runE3()
		case "e4":
			err = runE4(e4Bytes)
		case "e5":
			err = runE5()
		default:
			err = fmt.Errorf("unknown experiment %q", w)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func runE1() error {
	r, err := core.RunE1()
	if err != nil {
		return err
	}
	fmt.Println("E1 — AES-128 on the Rabbit 2000: hand assembly vs compiled C (§6)")
	fmt.Println("  implementation        cycles/block    KB/s @30MHz")
	fmt.Printf("  C (Dynamic C build)   %12.0f    %11.1f\n", r.CCyclesPerBlock, r.CKBps)
	fmt.Printf("  hand assembly         %12.0f    %11.1f\n", r.AsmCyclesPerBlock, r.AsmKBps)
	fmt.Printf("  assembly faster by    %11.1fx    (paper: 15-20x)\n", r.Factor)
	return nil
}

func runE2() error {
	rows, err := core.RunE2()
	if err != nil {
		return err
	}
	fmt.Println("E2 — optimizations tried on the C port (§6: \"improved run time by perhaps 20%\")")
	fmt.Println("  configuration           cycles/block   code bytes   gain")
	for _, r := range rows {
		fmt.Printf("  %-22s %13.0f   %10d   %+5.1f%%\n",
			r.Name, r.CyclesPerBlock, r.CodeSize, r.GainVsBaseline*100)
	}
	return nil
}

func runE3() error {
	r, err := core.RunE3()
	if err != nil {
		return err
	}
	fmt.Println("E3 — code size vs speed (§6: size \"uncorrelated to execution speed\")")
	fmt.Println("  build                       code bytes   cycles/block")
	for _, row := range r.Rows {
		fmt.Printf("  %-26s %10d   %12.0f\n", row.Name, row.CodeSize, row.CyclesPerBlock)
	}
	fmt.Printf("  assembly smaller than baseline C by %.1f%% (paper: 9%%)\n", r.AsmSmallerBy*100)
	return nil
}

func runE4(payload int) error {
	r, err := core.RunE4(payload)
	if err != nil {
		return err
	}
	fmt.Println("E4 — redirector throughput, plaintext vs issl-secured (§2, after Goldberg et al.)")
	fmt.Printf("  plaintext   %10.0f KB/s (per CPU-second)\n", r.PlainKBps)
	fmt.Printf("  issl        %10.0f KB/s (per CPU-second)\n", r.SecureKBps)
	fmt.Printf("  slowdown    %10.1fx   (paper cites ~an order of magnitude)\n", r.Slowdown)
	return nil
}

func runE5() error {
	r, err := core.RunE5()
	if err != nil {
		return err
	}
	fmt.Println("E5 — Fig. 3 connection-slot limit on the embedded server")
	fmt.Printf("  slots: %d, served simultaneously: %d\n", r.Slots, r.ServedAtOnce)
	fmt.Printf("  connection %d refused while slots busy: %v\n", r.Slots+1, r.ExtraRefused)
	fmt.Printf("  freed slot accepts a new connection:   %v\n", r.SlotReusable)
	return nil
}
