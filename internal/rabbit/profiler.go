package rabbit

import (
	"fmt"
	"io"
	"sort"
)

// Profiler is an InstrHook that attributes executed cycles to symbols
// from an assembled program, maintaining a call stack from CALL/RET
// flow events so it can emit both a flat per-symbol report and a
// folded-stack report in the format flamegraph tools consume
// ("caller;callee cycles" lines).
//
// Attribution rules:
//   - every instruction's cycles go to the symbol containing its PC
//     (flat) and to the call stack as it stood when the instruction
//     issued (folded) — so a CALL's 12 cycles bill to the caller and a
//     RET's 8 cycles bill to the callee, matching where the PC was;
//   - a CALL (or RST, or interrupt dispatch) pushes the frame for the
//     transfer target; RET/RETI pops, but never below the root frame,
//     so push-address/ret tricks degrade gracefully instead of
//     underflowing;
//   - interrupt dispatch and halted idle cycles are events too (the
//     CPU emits them), so the flat profile's cycles always sum to the
//     growth of CPU.Cycles while attached.
//
// PC→symbol resolution uses only symbols whose value lies inside the
// program's code range [origin, origin+len(code)): rasm symbol tables
// also carry equ constants (I/O addresses, buffer sizes) whose values
// are not code addresses and must not create bogus spans. Addresses
// before the first code symbol resolve to the synthetic symbol
// "(orphan)".
type Profiler struct {
	spans []span // sorted by start address

	// per-span accumulators, parallel to spans
	cycles []uint64
	instrs []uint64

	orphanCycles uint64
	orphanInstrs uint64

	stack  []int    // span indices, bottom-first; -1 = orphan frame
	keys   []string // keys[d] = folded key for stack[:d+1]
	folded map[string]uint64

	// lastSpan caches the most recent resolution: straight-line code
	// hits the same span for many instructions in a row.
	lastSpan int
}

type span struct {
	start uint16
	end   uint16 // exclusive
	name  string
}

const orphanName = "(orphan)"

// NewProfiler builds a profiler for a program image. Symbols outside
// the code range are ignored; symbols sharing an address are
// deduplicated keeping the lexically smallest name, so reports are
// deterministic.
func NewProfiler(origin uint16, codeLen int, symbols map[string]uint16) *Profiler {
	end := uint32(origin) + uint32(codeLen)
	type sym struct {
		addr uint16
		name string
	}
	var syms []sym
	for name, addr := range symbols {
		if uint32(addr) >= uint32(origin) && uint32(addr) < end {
			syms = append(syms, sym{addr, name})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].addr != syms[j].addr {
			return syms[i].addr < syms[j].addr
		}
		return syms[i].name < syms[j].name
	})
	p := &Profiler{folded: map[string]uint64{}, lastSpan: -1}
	for i, s := range syms {
		if i > 0 && p.spans[len(p.spans)-1].start == s.addr {
			continue // same address: keep first (lexically smallest) name
		}
		if n := len(p.spans); n > 0 {
			p.spans[n-1].end = s.addr
		}
		p.spans = append(p.spans, span{start: s.addr, end: uint16(end - 1), name: s.name})
	}
	if n := len(p.spans); n > 0 {
		// Last span runs to the end of code. end is exclusive; clamp to
		// the uint16 range (a program ending at 0x10000 wraps to 0).
		e := end
		if e > 0xFFFF {
			e = 0xFFFF // inclusive top handled in resolve
			p.spans[n-1].end = 0xFFFF
		} else {
			p.spans[n-1].end = uint16(e)
		}
	}
	p.cycles = make([]uint64, len(p.spans))
	p.instrs = make([]uint64, len(p.spans))
	return p
}

// NewProgramProfiler builds a profiler from the assembler's view of a
// program: origin, code length and symbol table.
func NewProgramProfiler(origin uint16, code []byte, symbols map[string]uint16) *Profiler {
	return NewProfiler(origin, len(code), symbols)
}

// Attach installs the profiler as the CPU's hook.
func (p *Profiler) Attach(c *CPU) { c.Hook = p }

// resolve maps a PC to a span index, -1 for addresses outside all
// spans.
func (p *Profiler) resolve(pc uint16) int {
	if p.lastSpan >= 0 {
		s := p.spans[p.lastSpan]
		if pc >= s.start && (pc < s.end || (s.end == 0xFFFF && pc == 0xFFFF)) {
			return p.lastSpan
		}
	}
	lo, hi := 0, len(p.spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.spans[mid].start <= pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first span starting after pc; candidate is lo-1.
	if lo == 0 {
		return -1
	}
	i := lo - 1
	s := p.spans[i]
	if pc < s.end || (s.end == 0xFFFF && pc == 0xFFFF) {
		p.lastSpan = i
		return i
	}
	return -1
}

func (p *Profiler) spanName(i int) string {
	if i < 0 {
		return orphanName
	}
	return p.spans[i].name
}

// OnInstr implements InstrHook.
func (p *Profiler) OnInstr(ev InstrEvent) {
	si := p.resolve(ev.PC)
	if si < 0 {
		p.orphanCycles += ev.Cycles
		p.orphanInstrs++
	} else {
		p.cycles[si] += ev.Cycles
		p.instrs[si]++
	}

	// Seed the stack with the frame execution started in.
	if len(p.stack) == 0 {
		p.push(si)
	} else if p.stack[len(p.stack)-1] != si && ev.Flow == FlowNone {
		// Straight-line fall-through (or a jump) crossed a symbol
		// boundary: retarget the top frame rather than nesting, since
		// no return address was pushed.
		p.retarget(si)
	}

	// Bill to the stack as it stood when this instruction issued.
	p.folded[p.keys[len(p.keys)-1]] += ev.Cycles

	switch ev.Flow {
	case FlowCall, FlowInt:
		p.push(p.resolve(ev.Target))
	case FlowRet:
		if len(p.stack) > 1 {
			p.stack = p.stack[:len(p.stack)-1]
			p.keys = p.keys[:len(p.keys)-1]
		} else {
			// Returning past the root (push-address/ret trick or a
			// profiler attached mid-run): retarget rather than
			// underflow.
			p.retarget(p.resolve(ev.Target))
		}
	}
}

func (p *Profiler) push(si int) {
	name := p.spanName(si)
	var key string
	if len(p.keys) == 0 {
		key = name
	} else {
		key = p.keys[len(p.keys)-1] + ";" + name
	}
	p.stack = append(p.stack, si)
	p.keys = append(p.keys, key)
}

// retarget rewrites the top frame to span si, rebuilding its key.
func (p *Profiler) retarget(si int) {
	p.stack = p.stack[:len(p.stack)-1]
	p.keys = p.keys[:len(p.keys)-1]
	p.push(si)
}

// OnReset implements InstrHook: discards call stack and totals so a
// CPU.Reset starts profiling from a clean slate.
func (p *Profiler) OnReset() {
	for i := range p.cycles {
		p.cycles[i] = 0
		p.instrs[i] = 0
	}
	p.orphanCycles = 0
	p.orphanInstrs = 0
	p.stack = p.stack[:0]
	p.keys = p.keys[:0]
	p.folded = map[string]uint64{}
	p.lastSpan = -1
}

// FlatLine is one row of the flat profile.
type FlatLine struct {
	Symbol string
	Cycles uint64
	Instrs uint64
}

// Flat returns per-symbol totals sorted by descending cycles (ties by
// name). Symbols that never executed are omitted.
func (p *Profiler) Flat() []FlatLine {
	out := make([]FlatLine, 0, len(p.spans)+1)
	for i, s := range p.spans {
		if p.cycles[i] == 0 && p.instrs[i] == 0 {
			continue
		}
		out = append(out, FlatLine{Symbol: s.name, Cycles: p.cycles[i], Instrs: p.instrs[i]})
	}
	if p.orphanCycles != 0 || p.orphanInstrs != 0 {
		out = append(out, FlatLine{Symbol: orphanName, Cycles: p.orphanCycles, Instrs: p.orphanInstrs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Symbol < out[j].Symbol
	})
	return out
}

// WriteFlat renders the flat profile as a table with percentages,
// cut to the top hottest symbols when top > 0; the TOTAL row then says
// how many of them it shows.
func (p *Profiler) WriteFlat(w io.Writer, top int) error {
	rows := p.Flat()
	var total uint64
	for _, l := range rows {
		total += l.Cycles
	}
	all := len(rows)
	if top > 0 && top < all {
		rows = rows[:top]
	}
	if _, err := fmt.Fprintf(w, "%-24s %12s %8s %12s\n", "SYMBOL", "CYCLES", "PCT", "INSTRS"); err != nil {
		return err
	}
	for _, l := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(l.Cycles) / float64(total)
		}
		if _, err := fmt.Fprintf(w, "%-24s %12d %7.2f%% %12d\n", l.Symbol, l.Cycles, pct, l.Instrs); err != nil {
			return err
		}
	}
	cut := ""
	if len(rows) < all {
		cut = fmt.Sprintf(" (top %d of %d)", len(rows), all)
	}
	_, err := fmt.Fprintf(w, "%-24s %12d %7.2f%%%s\n", "TOTAL", total, 100.0, cut)
	return err
}

// WriteFolded renders the folded stacks in the flamegraph collapsed
// format — one "stack count" line per unique stack, sorted lexically
// so output is deterministic.
func (p *Profiler) WriteFolded(w io.Writer) error {
	keys := make([]string, 0, len(p.folded))
	for k := range p.folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, p.folded[k]); err != nil {
			return err
		}
	}
	return nil
}
