// Command rmcsim runs a binary image on the simulated RMC2000 board for
// up to 100M cycles. Anything the program transmits on serial port A
// is printed afterward.
//
// Usage:
//
//	rmcsim [-d] [-profile] [-folded FILE] [-top N] prog.bin|prog.asm
//	rmcsim -e1 [-blocks N] [-profile] [-folded PREFIX]
//
// A .asm argument is assembled with rasm first, which gives the
// profiler a symbol table; a raw .bin profiles as one "(orphan)" span.
//
// -e1 prints the paper's §6 experiment — AES-128 in hand assembly vs.
// compiled C — exactly as core.RunE1 measures it (the E1 number) and,
// with -profile, runs the same two builds over -blocks chained blocks
// and attributes the cycles per routine,
// answering "where did the cycles go" for the C-vs-asm gap. With
// -folded PREFIX it writes PREFIX-asm.folded and PREFIX-c.folded,
// both renderable by standard flamegraph tools.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/aesasm"
	"repro/internal/aesc"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rabbit"
	"repro/internal/rasm"
	"repro/internal/rmc2000"
)

// cycleBudget bounds one image run: 3.3 s of board time at 30 MHz.
const cycleBudget = 100_000_000

func main() {
	disasm := flag.Bool("d", false, "print a disassembly listing instead of running")
	profile := flag.Bool("profile", false, "attribute cycles to rasm symbols; print a flat report")
	folded := flag.String("folded", "", "write folded call stacks (flamegraph format) to this file")
	top := flag.Int("top", 0, "limit the flat report to the top N symbols (0 = all)")
	e1 := flag.Bool("e1", false, "run the E1 AES experiment (C vs. assembly) instead of an image")
	blocks := flag.Int("blocks", 16, "blocks to encrypt per variant in -e1 mode")
	flag.Parse()

	if *e1 {
		if err := runE1(os.Stdout, *blocks, *profile, *folded, *top); err != nil {
			fatal(err)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rmcsim [-d] [-profile] [-folded FILE] [-top N] prog.bin|prog.asm")
		fmt.Fprintln(os.Stderr, "       rmcsim -e1 [-blocks N] [-profile] [-folded PREFIX]")
		os.Exit(2)
	}
	path := flag.Arg(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}

	// An assembly source carries its symbol table with it; a raw image
	// runs (and profiles) without one.
	origin := uint16(0)
	img := raw
	var symbols map[string]uint16
	if strings.HasSuffix(path, ".asm") || strings.HasSuffix(path, ".s") {
		prog, err := rasm.Assemble(string(raw))
		if err != nil {
			fatal(err)
		}
		origin, img, symbols = prog.Origin, prog.Code, prog.Symbols
	}

	if *disasm {
		fmt.Print(rasm.Listing(img, origin))
		return
	}
	board, err := rmc2000.New(nil, netsim.MAC{})
	if err != nil {
		fatal(err)
	}
	board.LoadProgram(origin, img)
	var prof *rabbit.Profiler
	if *profile || *folded != "" {
		prof = rabbit.NewProgramProfiler(origin, img, symbols)
		prof.Attach(board.CPU)
	}
	runErr := board.Run(cycleBudget)
	cpu := board.CPU
	fmt.Printf("halted=%v instructions=%d cycles=%d (%.3f ms at 30 MHz)\n",
		cpu.Halted, cpu.Instructions, cpu.Cycles, float64(cpu.Cycles)/30000.0)
	fmt.Printf("registers: %s\n", cpu)
	if out := board.Serial[0].HostRecv(); len(out) > 0 {
		fmt.Printf("serial A output: %q\n", out)
	}
	if prof != nil {
		if err := report(os.Stdout, prof, *profile, *folded, *top); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
}

// runE1 prints E1 as core.RunE1 measures it and, with profile or
// foldedPrefix, profiles the same two builds over a chain of blocks.
func runE1(w io.Writer, blocks int, profile bool, foldedPrefix string, top int) error {
	res, err := core.RunE1()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "E1: AES-128, cycles per block over %d chained blocks (key schedule and first block subtracted)\n", res.Blocks)
	fmt.Fprintf(w, "  assembly: %.0f cycles/block (%.2f KB/s at 30 MHz)\n", res.AsmCyclesPerBlock, res.AsmKBps)
	fmt.Fprintf(w, "  C:        %.0f cycles/block (%.2f KB/s), dcc %+v\n", res.CCyclesPerBlock, res.CKBps, res.COptions)
	fmt.Fprintf(w, "  ratio:    %.2fx\n", res.Factor)
	if !profile && foldedPrefix == "" {
		return nil
	}

	var key, block [16]byte
	for i := range key {
		key[i] = byte(i)
		block[i] = byte(i * 17)
	}
	asm, err := aesasm.Load()
	if err != nil {
		return err
	}
	asmProf := asm.EnableProfiler()
	if _, _, err := asm.EncryptChain(key, block, blocks); err != nil {
		return err
	}
	cc, err := aesc.Build(res.COptions)
	if err != nil {
		return err
	}
	cProf := cc.EnableProfiler()
	if _, _, err := cc.EncryptChain(key, block, blocks); err != nil {
		return err
	}

	foldedFor := func(suffix string) string {
		if foldedPrefix == "" {
			return ""
		}
		return foldedPrefix + "-" + suffix + ".folded"
	}
	fmt.Fprintf(w, "\n--- assembly profile (%d blocks, key schedule included) ---\n", blocks)
	if err := report(w, asmProf, profile, foldedFor("asm"), top); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n--- C profile (%d blocks, key schedule included) ---\n", blocks)
	return report(w, cProf, profile, foldedFor("c"), top)
}

// report prints the flat table and/or writes the folded-stack file.
func report(w io.Writer, p *rabbit.Profiler, flat bool, foldedPath string, top int) error {
	if p == nil {
		return nil
	}
	if flat {
		if err := writeFlat(p, w, top); err != nil {
			return err
		}
	}
	if foldedPath != "" {
		f, err := os.Create(foldedPath)
		if err != nil {
			return err
		}
		if err := p.WriteFolded(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "folded stacks written to %s\n", foldedPath)
	}
	return nil
}

// writeFlat renders the flat report, optionally truncated to top rows.
func writeFlat(p *rabbit.Profiler, w io.Writer, top int) error {
	if top <= 0 {
		return p.WriteFlat(w)
	}
	rows := p.Flat()
	if top < len(rows) {
		rows = rows[:top]
	}
	total := p.TotalCycles()
	fmt.Fprintf(w, "%-24s %12s %7s %12s\n", "SYMBOL", "CYCLES", "PCT", "INSTRS")
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.Cycles) / float64(total)
		}
		fmt.Fprintf(w, "%-24s %12d %6.2f%% %12d\n", r.Symbol, r.Cycles, pct, r.Instrs)
	}
	fmt.Fprintf(w, "%-24s %12d %6.2f%% (top %d of %d)\n", "TOTAL", total, 100.0, top, len(p.Flat()))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmcsim:", err)
	os.Exit(1)
}
