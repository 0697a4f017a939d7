// Command rmcprof formats folded-stack profiles produced by the Rabbit
// cycle profiler (rmcsim -folded, rabbit.Profiler.WriteFolded). The
// input is flamegraph collapsed format — "frame;frame;frame cycles"
// per line — read from the named files or stdin.
//
// The report gives each symbol two numbers, the same split pprof
// makes: SELF (cycles attributed while the symbol's own code ran,
// stack-leaf attribution) and CUM (cycles while it was anywhere on the
// stack). SELF sums to the profile total; CUM does not. Rows are
// sorted by SELF.
//
// Usage:
//
//	rmcprof [profile.folded ...]
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	self := map[string]uint64{}
	cum := map[string]uint64{}
	var total uint64
	readOne := func(name string, r io.Reader) error {
		sc := bufio.NewScanner(r)
		line := 0
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			sp := strings.LastIndexByte(text, ' ')
			if sp < 0 {
				return fmt.Errorf("%s:%d: no cycle count: %q", name, line, text)
			}
			n, err := strconv.ParseUint(text[sp+1:], 10, 64)
			if err != nil {
				return fmt.Errorf("%s:%d: bad cycle count: %v", name, line, err)
			}
			frames := strings.Split(text[:sp], ";")
			total += n
			self[frames[len(frames)-1]] += n
			// Count each symbol once per stack so recursion does not
			// double-bill its cumulative time.
			seen := map[string]bool{}
			for _, f := range frames {
				if !seen[f] {
					seen[f] = true
					cum[f] += n
				}
			}
		}
		return sc.Err()
	}

	paths := os.Args[1:]
	if len(paths) == 0 {
		if err := readOne("stdin", os.Stdin); err != nil {
			fatal(err)
		}
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		err = readOne(path, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	syms := make([]string, 0, len(cum))
	for s := range cum {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool {
		a, b := syms[i], syms[j]
		if self[a] != self[b] {
			return self[a] > self[b]
		}
		return a < b
	})

	fmt.Printf("%-24s %12s %7s %12s %7s\n", "SYMBOL", "SELF", "PCT", "CUM", "PCT")
	for _, s := range syms {
		fmt.Printf("%-24s %12d %6.2f%% %12d %6.2f%%\n",
			s, self[s], pct(self[s], total), cum[s], pct(cum[s], total))
	}
	fmt.Printf("%-24s %12d %6.2f%%\n", "TOTAL", total, 100.0)
}

func pct(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmcprof:", err)
	os.Exit(1)
}
