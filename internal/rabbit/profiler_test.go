package rabbit_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rabbit"
	"repro/internal/rasm"
)

// nestedCallSrc is a tiny program with two levels of nested CALLs plus
// equ constants exercising both profiler symbol-table rules: iobase is
// outside the code range (ignored entirely), a2 aliases label a's
// address (deduped, lexically-smallest name "a" wins).
const nestedCallSrc = `
        org 0x4000
iobase  equ 0xA000   ; outside code range — must be ignored
fn2    equ 0x4004   ; aliases label fn — deduped, "fn" survives
start:  call fn
        halt
fn:     call gn
        ret
gn:     nop
        ret
`

// flatCycles sums the flat profile's cycles: the cycles the profiler
// has seen since attach or reset.
func flatCycles(p *rabbit.Profiler) uint64 {
	var n uint64
	for _, l := range p.Flat() {
		n += l.Cycles
	}
	return n
}

func buildProfiled(t *testing.T, src string) (*rabbit.CPU, *rabbit.Profiler) {
	t.Helper()
	prog, err := rasm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := rabbit.New()
	c.Mem.LoadPhysical(uint32(prog.Origin), prog.Code)
	c.PC = prog.Origin
	p := rabbit.NewProgramProfiler(prog.Origin, prog.Code, prog.Symbols)
	p.Attach(c)
	return c, p
}

// TestProfilerFoldedGolden pins the exact folded-stack output for the
// nested-call program. Cycle costs: CALL=12, RET=8, NOP=2, HALT=2, so
//
//	start        = call(12) + halt(2)      = 14
//	start;fn     = call(12) + ret(8)       = 20
//	start;fn;gn  = nop(2)   + ret(8)       = 10
//
// summing to 44 == CPU.Cycles.
func TestProfilerFoldedGolden(t *testing.T) {
	c, p := buildProfiled(t, nestedCallSrc)
	if err := c.Run(10_000); err != nil {
		t.Fatalf("run: %v", err)
	}

	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "" +
		"start 14\n" +
		"start;fn 20\n" +
		"start;fn;gn 10\n"
	if got != want {
		t.Fatalf("folded output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	if flatCycles(p) != c.Cycles {
		t.Fatalf("flat cycles %d != CPU.Cycles %d", flatCycles(p), c.Cycles)
	}
	if c.Cycles != 44 {
		t.Fatalf("CPU.Cycles = %d, want 44", c.Cycles)
	}
}

func TestProfilerFlatSumsToCycles(t *testing.T) {
	c, p := buildProfiled(t, nestedCallSrc)
	if err := c.Run(10_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	var sum uint64
	for _, l := range p.Flat() {
		sum += l.Cycles
	}
	if sum != c.Cycles {
		t.Fatalf("flat sum %d != CPU.Cycles %d", sum, c.Cycles)
	}
	flat := p.Flat()
	if len(flat) != 3 {
		t.Fatalf("flat has %d symbols, want 3: %+v", len(flat), flat)
	}
	// Descending by cycles: fn (20), start (14), gn (10).
	if flat[0].Symbol != "fn" || flat[0].Cycles != 20 ||
		flat[1].Symbol != "start" || flat[1].Cycles != 14 ||
		flat[2].Symbol != "gn" || flat[2].Cycles != 10 {
		t.Fatalf("flat profile wrong: %+v", flat)
	}
	for _, l := range flat {
		if l.Instrs != 2 {
			t.Fatalf("symbol %s instrs = %d, want 2", l.Symbol, l.Instrs)
		}
	}

	var rep bytes.Buffer
	if err := p.WriteFlat(&rep, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "TOTAL") || !strings.Contains(rep.String(), "fn ") {
		t.Fatalf("flat report missing content:\n%s", rep.String())
	}
	rep.Reset()
	if err := p.WriteFlat(&rep, 1); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(rep.String()), "\n"); len(lines) != 3 ||
		!strings.HasPrefix(lines[1], "fn ") || !strings.HasSuffix(lines[2], "(top 1 of 3)") {
		t.Fatalf("top-1 flat report wrong:\n%s", rep.String())
	}
}

// TestProfilerEquSymbolsIgnored checks out-of-range equ constants never
// become profile symbols.
func TestProfilerEquSymbolsIgnored(t *testing.T) {
	c, p := buildProfiled(t, nestedCallSrc)
	if err := c.Run(10_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, l := range p.Flat() {
		if l.Symbol == "iobase" {
			t.Fatalf("equ constant iobase leaked into profile: %+v", p.Flat())
		}
	}
}

// TestProfilerReset verifies the CPU.Reset contract: hook state is
// discarded with the cycle counters, and a rerun reproduces identical
// numbers.
func TestProfilerReset(t *testing.T) {
	c, p := buildProfiled(t, nestedCallSrc)
	if err := c.Run(10_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	first := flatCycles(p)
	if first == 0 {
		t.Fatal("no cycles profiled")
	}

	c.Reset()
	if flatCycles(p) != 0 {
		t.Fatalf("flat cycles after Reset = %d, want 0", flatCycles(p))
	}
	if len(p.Flat()) != 0 {
		t.Fatalf("Flat after Reset = %+v, want empty", p.Flat())
	}
	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil || folded.Len() != 0 {
		t.Fatalf("WriteFolded after Reset = %q, %v; want empty", folded.String(), err)
	}

	c.PC = 0x4000
	if err := c.Run(10_000); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if flatCycles(p) != first || flatCycles(p) != c.Cycles {
		t.Fatalf("rerun flat cycles = %d (CPU %d), want %d", flatCycles(p), c.Cycles, first)
	}
}

// TestProfilerInterrupt checks interrupt dispatch cycles are attributed
// (FlowInt pushes the handler frame) and RETI pops back, keeping the
// total equal to CPU.Cycles.
func TestProfilerInterrupt(t *testing.T) {
	src := `
        org 0x4000
start:  ld a, 1
loop:   dec a
        jr nz, loop
        halt
isr:    nop
        reti
`
	prog, err := rasm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := rabbit.New()
	c.Mem.LoadPhysical(uint32(prog.Origin), prog.Code)
	c.PC = prog.Origin
	c.IFF = true
	c.IntVector = prog.Symbols["isr"]
	p := rabbit.NewProgramProfiler(prog.Origin, prog.Code, prog.Symbols)
	p.Attach(c)

	c.RaiseInt()
	if err := c.Run(10_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if flatCycles(p) != c.Cycles {
		t.Fatalf("flat cycles %d != CPU.Cycles %d", flatCycles(p), c.Cycles)
	}
	var isrSeen bool
	for _, l := range p.Flat() {
		if l.Symbol == "isr" && l.Cycles > 0 {
			isrSeen = true
		}
	}
	if !isrSeen {
		t.Fatalf("isr missing from flat profile: %+v", p.Flat())
	}
	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(folded.String(), ";isr") {
		t.Fatalf("no folded stack contains ;isr:\n%s", folded.String())
	}
}

// BenchmarkStepNoHookAllocs guards the acceptance criterion that a CPU
// with no hook attached pays zero allocations per instruction.
func BenchmarkStepNoHookAllocs(b *testing.B) {
	prog, err := rasm.Assemble("        org 0\nloop:   nop\n        jr loop\n")
	if err != nil {
		b.Fatal(err)
	}
	c := rabbit.New()
	c.Mem.LoadPhysical(uint32(prog.Origin), prog.Code)
	c.PC = prog.Origin

	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	})
	if allocs != 0 {
		b.Fatalf("Step with no hook allocates %.1f per op, want 0", allocs)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Step()
	}
}

// BenchmarkRunNoHookAllocs is BenchmarkStepNoHookAllocs for Run's
// straight-line loop: one op runs a 256-iteration NOP/DJNZ loop to
// HALT, and the loop must not allocate either.
func BenchmarkRunNoHookAllocs(b *testing.B) {
	prog, err := rasm.Assemble("        org 0\n        ld b, 0\nloop:   nop\n        djnz loop\n        halt\n")
	if err != nil {
		b.Fatal(err)
	}
	c := rabbit.New()
	c.Mem.LoadPhysical(uint32(prog.Origin), prog.Code)
	run := func() {
		c.PC, c.Halted = prog.Origin, false
		if err := c.Run(1 << 20); err != nil {
			b.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		b.Fatalf("Run with no hook allocates %.1f per op, want 0", allocs)
	}

	b.ReportAllocs()
	start := c.Instructions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.Instructions-start), "ns/instr")
}

// BenchmarkStepProfiled measures hook overhead for the steady state
// (straight-line code, cached symbol resolution) and guards that the
// profiler itself does not allocate per instruction once its stack is
// warm.
func BenchmarkStepProfiled(b *testing.B) {
	prog, err := rasm.Assemble("        org 0\nloop:   nop\n        jr loop\n")
	if err != nil {
		b.Fatal(err)
	}
	c := rabbit.New()
	c.Mem.LoadPhysical(uint32(prog.Origin), prog.Code)
	c.PC = prog.Origin
	p := rabbit.NewProgramProfiler(prog.Origin, prog.Code, prog.Symbols)
	p.Attach(c)
	_ = c.Step() // warm: seed root frame + folded entry

	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	})
	if allocs != 0 {
		b.Fatalf("profiled Step allocates %.1f per op in steady state, want 0", allocs)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Step()
	}
}
