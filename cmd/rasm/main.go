// Command rasm assembles Rabbit 2000 assembly source into a binary
// image, printing the section size and the symbol table.
//
// Usage:
//
//	rasm [-o out.bin] prog.asm
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/rasm"
)

func main() {
	out := flag.String("o", "", "output image path (default: input with .bin)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rasm [-o out.bin] prog.asm")
		os.Exit(2)
	}
	in := flag.Arg(0)
	src, err := os.ReadFile(in)
	if err != nil {
		fatal(err)
	}
	prog, err := rasm.Assemble(string(src))
	if err != nil {
		fatal(err)
	}
	dst := *out
	if dst == "" {
		dst = strings.TrimSuffix(in, ".asm") + ".bin"
	}
	if err := os.WriteFile(dst, prog.Code, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d bytes at origin %04x -> %s\n", in, prog.Size(), prog.Origin, dst)
	names := make([]string, 0, len(prog.Symbols))
	for n := range prog.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return prog.Symbols[names[i]] < prog.Symbols[names[j]]
	})
	for _, n := range names {
		fmt.Printf("  %04x  %s\n", prog.Symbols[n], n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rasm:", err)
	os.Exit(1)
}
