package dcc

import (
	"fmt"

	"repro/internal/rabbit"
	"repro/internal/rasm"
)

// Compilation is the result of compiling a translation unit.
type Compilation struct {
	// Asm is the generated assembly text.
	Asm string
	// Program is the assembled image.
	Program *rasm.Program
	// Options echoes the knobs used.
	Options Options
}

// Compile translates Dynamic C subset source into a loadable image.
func Compile(src string, opt Options) (*Compilation, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	g := &codegen{opt: opt, prog: prog}
	asmText, err := g.generate()
	if err != nil {
		return nil, err
	}
	img, err := rasm.Assemble(asmText)
	if err != nil {
		return nil, fmt.Errorf("dcc: backend: %w", err)
	}
	return &Compilation{Asm: asmText, Program: img, Options: opt}, nil
}

// CodeSize returns the size of the code section in bytes (up to the
// code_end marker; data excluded) — the paper's E3 metric.
func (c *Compilation) CodeSize() int {
	end, ok := c.Program.Symbols["code_end"]
	if !ok {
		return c.Program.Size()
	}
	return int(end - c.Program.Origin)
}

// Symbol returns the address of a global (by C name).
func (c *Compilation) Symbol(name string) (uint16, bool) {
	v, ok := c.Program.Symbols["_g_"+name]
	return v, ok
}

// Machine is a Rabbit with a compiled program loaded and the XPC bank
// register wired to the I/O port the generated code programs.
type Machine struct {
	CPU  *rabbit.CPU
	comp *Compilation
}

// xpcBus routes the XPC port write to the MMU, everything else nowhere.
type xpcBus struct{ mem *rabbit.Memory }

func (b xpcBus) In(port uint16) uint8 {
	if port == XPCPort {
		return b.mem.MMU(rabbit.XPCReg)
	}
	return 0xff
}

func (b xpcBus) Out(port uint16, v uint8) {
	if port == XPCPort {
		b.mem.SetMMU(rabbit.XPCReg, v)
	}
}

// EnableProfiler attaches a cycle profiler for the compiled program to
// the machine's CPU and returns it. The profiler survives CPU.Reset
// (its totals restart with CPU.Cycles), so it can be read after a run.
func (m *Machine) EnableProfiler() *rabbit.Profiler {
	p := rabbit.NewProgramProfiler(m.comp.Program.Origin, m.comp.Program.Code, m.comp.Program.Symbols)
	p.Attach(m.CPU)
	return p
}

// NewMachine loads the compiled image at address 0.
func NewMachine(comp *Compilation) *Machine {
	cpu := rabbit.New()
	cpu.IO = xpcBus{mem: cpu.Mem}
	cpu.Mem.LoadPhysical(uint32(comp.Program.Origin), comp.Program.Code)
	cpu.PC = comp.Program.Origin
	return &Machine{CPU: cpu, comp: comp}
}

// Reset reloads the image and resets the CPU (statics regain their
// compile-time initial values).
func (m *Machine) Reset() {
	m.CPU.Reset()
	for i := range m.CPU.Mem.Phys {
		m.CPU.Mem.Phys[i] = 0
	}
	m.CPU.Mem.LoadPhysical(uint32(m.comp.Program.Origin), m.comp.Program.Code)
	m.CPU.PC = m.comp.Program.Origin
}

// Run executes until HALT within the cycle budget.
func (m *Machine) Run(budget uint64) error {
	return m.CPU.Run(budget)
}

// PokeBytes writes bytes at a global char array.
func (m *Machine) PokeBytes(name string, data []byte) error {
	addr, ok := m.comp.Symbol(name)
	if !ok {
		return fmt.Errorf("dcc: no global %q", name)
	}
	for i, b := range data {
		m.CPU.Mem.Write(addr+uint16(i), b)
	}
	return nil
}

// PeekBytes fills dst from a global char array.
func (m *Machine) PeekBytes(name string, dst []byte) error {
	addr, ok := m.comp.Symbol(name)
	if !ok {
		return fmt.Errorf("dcc: no global %q", name)
	}
	for i := range dst {
		dst[i] = m.CPU.Mem.Read(addr + uint16(i))
	}
	return nil
}

// PokeInt writes a 16-bit global.
func (m *Machine) PokeInt(name string, v uint16) error {
	addr, ok := m.comp.Symbol(name)
	if !ok {
		return fmt.Errorf("dcc: no global %q", name)
	}
	m.CPU.Mem.Write16(addr, v)
	return nil
}
