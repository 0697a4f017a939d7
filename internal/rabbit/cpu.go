package rabbit

import (
	"errors"
	"fmt"
)

// Flag bits (Z80 layout; the Rabbit keeps the same F register shape
// for the flags this simulator models).
const (
	FlagC  uint8 = 0x01
	FlagN  uint8 = 0x02
	FlagPV uint8 = 0x04
	FlagH  uint8 = 0x10
	FlagZ  uint8 = 0x40
	FlagS  uint8 = 0x80
)

// Bus is the internal I/O space (16-bit port addresses on the Rabbit).
type Bus interface {
	In(port uint16) uint8
	Out(port uint16, v uint8)
}

// NullBus ignores writes and reads 0xFF, like unpopulated I/O.
type NullBus struct{}

// In implements Bus.
func (NullBus) In(uint16) uint8 { return 0xff }

// Out implements Bus.
func (NullBus) Out(uint16, uint8) {}

// FlowKind classifies an instruction's effect on the call stack, for
// observers that reconstruct caller/callee relationships.
type FlowKind uint8

// Flow kinds reported in InstrEvent.
const (
	FlowNone FlowKind = iota // ordinary instruction (incl. jumps)
	FlowCall                 // CALL / CALL cc (taken) / RST: pushed a return address
	FlowRet                  // RET / RET cc (taken) / RETI: popped a return address
	FlowInt                  // interrupt accepted: hardware pushed PC, jumped to vector
)

// InstrEvent describes one retired instruction (or interrupt dispatch /
// halted idle step) for an attached InstrHook.
type InstrEvent struct {
	PC     uint16   // address the instruction was fetched from
	Op     uint8    // first opcode byte (0 for interrupt dispatch)
	Cycles uint64   // cycles charged for this event
	Flow   FlowKind // call-stack effect
	Target uint16   // Flow != FlowNone: the PC after the transfer
}

// InstrHook observes execution. OnInstr fires after every cycle-charging
// step — retired instructions, interrupt dispatch, and halted idle — so
// the sum of event Cycles equals the growth of CPU.Cycles while the
// hook is attached. OnReset fires from CPU.Reset so observer state
// (call stacks, accumulated totals) restarts with the CPU.
type InstrHook interface {
	OnInstr(ev InstrEvent)
	OnReset()
}

// CPU is a Rabbit 2000 processor core.
type CPU struct {
	A, F, B, C, D, E, H, L uint8
	// Alternate register set (EX AF,AF' / EXX).
	A2, F2, B2, C2, D2, E2, H2, L2 uint8
	IX, IY, SP, PC                 uint16

	Mem *Memory
	IO  Bus

	// Cycles approximates Rabbit 2000 clock counts.
	Cycles uint64
	// Instructions counts retired instructions.
	Instructions uint64

	Halted bool
	IFF    bool // interrupt enable

	// IntVector is where an accepted external interrupt jumps
	// (SetVectExtern2000 in Dynamic C terms).
	IntVector  uint16
	intPending bool

	// ioPrefix marks that the current instruction was preceded by the
	// IOI prefix: its memory operands address internal I/O.
	ioPrefix bool

	// Hook, when non-nil, observes every executed instruction. The
	// instruction hot path pays only a nil check when no hook is
	// attached (guarded by BenchmarkStepNoHookAllocs).
	Hook InstrHook

	// flow/flowTarget are scratch set by exec for the current
	// instruction's control transfer; only maintained when Hook != nil.
	flow       FlowKind
	flowTarget uint16
}

// ErrIllegalOpcode reports an unimplemented or invalid instruction.
var ErrIllegalOpcode = errors.New("rabbit: illegal opcode")

// New creates a CPU with fresh memory and a null I/O bus.
func New() *CPU {
	return &CPU{Mem: NewMemory(), IO: NullBus{}, SP: 0xDFFF}
}

// Reset returns the CPU to power-on state (memory untouched).
//
// Reset contract: Cycles and Instructions restart from zero, and any
// attached Hook is notified via OnReset before Reset returns, so
// observer state derived from the execution history (profiler call
// stacks, per-symbol totals) is discarded in the same instant the
// counters it mirrors are. The Hook itself stays attached — machines
// that Reset between runs (e.g. aesasm.EncryptChain) keep profiling
// without re-wiring.
func (c *CPU) Reset() {
	c.A, c.F, c.B, c.C, c.D, c.E, c.H, c.L = 0, 0, 0, 0, 0, 0, 0, 0
	c.IX, c.IY = 0, 0
	c.SP, c.PC = 0xDFFF, 0
	c.Halted = false
	c.IFF = false
	c.intPending = false
	c.Cycles = 0
	c.Instructions = 0
	c.flow = FlowNone
	if c.Hook != nil {
		c.Hook.OnReset()
	}
}

// RaiseInt asserts the external interrupt line.
func (c *CPU) RaiseInt() { c.intPending = true }

// --- register pair helpers ----------------------------------------------------

// BC/DE/HL accessors.
func (c *CPU) bc() uint16     { return uint16(c.B)<<8 | uint16(c.C) }
func (c *CPU) de() uint16     { return uint16(c.D)<<8 | uint16(c.E) }
func (c *CPU) hl() uint16     { return uint16(c.H)<<8 | uint16(c.L) }
func (c *CPU) setBC(v uint16) { c.B, c.C = uint8(v>>8), uint8(v) }
func (c *CPU) setDE(v uint16) { c.D, c.E = uint8(v>>8), uint8(v) }
func (c *CPU) setHL(v uint16) { c.H, c.L = uint8(v>>8), uint8(v) }
func (c *CPU) af() uint16     { return uint16(c.A)<<8 | uint16(c.F) }
func (c *CPU) setAF(v uint16) { c.A, c.F = uint8(v>>8), uint8(v) }

// memRead8 honors the IOI prefix for operand access.
func (c *CPU) memRead8(addr uint16) uint8 {
	if c.ioPrefix {
		return c.IO.In(addr)
	}
	return c.Mem.Read(addr)
}

func (c *CPU) memWrite8(addr uint16, v uint8) {
	if c.ioPrefix {
		c.IO.Out(addr, v)
		return
	}
	c.Mem.Write(addr, v)
}

// readHL and writeHL access the (HL) operand.
func (c *CPU) readHL() uint8   { return c.memRead8(c.hl()) }
func (c *CPU) writeHL(v uint8) { c.memWrite8(c.hl(), v) }

// ixd fetches the displacement of an (IX+d) operand and returns its
// address.
func (c *CPU) ixd(ix *uint16) uint16 { return *ix + uint16(int8(c.fetch8())) }

// load16 and store16 move the word of LD HL/IX/IY,(nn) and
// LD (nn),HL/IX/IY, which go to internal I/O under the IOI prefix.
func (c *CPU) load16(addr uint16) uint16 {
	if c.ioPrefix {
		return uint16(c.IO.In(addr)) | uint16(c.IO.In(addr+1))<<8
	}
	return c.Mem.Read16(addr)
}

func (c *CPU) store16(addr, v uint16) {
	if c.ioPrefix {
		c.IO.Out(addr, uint8(v))
		c.IO.Out(addr+1, uint8(v>>8))
		return
	}
	c.Mem.Write16(addr, v)
}

// --- fetch helpers -------------------------------------------------------------

// fetch8 reads the byte at PC and advances PC. It inlines to a single
// page-table lookup and load.
func (c *CPU) fetch8() uint8 {
	v := c.Mem.Read(c.PC)
	c.PC++
	return v
}

func (c *CPU) fetch16() uint16 {
	lo := c.fetch8()
	hi := c.fetch8()
	return uint16(hi)<<8 | uint16(lo)
}

func (c *CPU) push16(v uint16) {
	c.SP -= 2
	c.Mem.Write16(c.SP, v)
}

func (c *CPU) pop16() uint16 {
	v := c.Mem.Read16(c.SP)
	c.SP += 2
	return v
}

// --- control transfer ------------------------------------------------------------

// jr is DJNZ's and JR cc's tail: fetch the displacement, branch if taken.
func (c *CPU) jr(taken bool) {
	e := int8(c.fetch8())
	if taken {
		c.PC += uint16(e)
		c.Cycles += 7
		return
	}
	c.Cycles += 5
}

func (c *CPU) jpIf(taken bool) {
	addr := c.fetch16()
	if taken {
		c.PC = addr
	}
	c.Cycles += 7
}

func (c *CPU) callIf(taken bool) {
	addr := c.fetch16()
	if taken {
		c.push16(c.PC)
		c.PC = addr
		c.Cycles += 12
		if c.Hook != nil {
			c.flow, c.flowTarget = FlowCall, addr
		}
		return
	}
	c.Cycles += 7
}

func (c *CPU) retIf(taken bool) {
	if taken {
		c.PC = c.pop16()
		c.Cycles += 8
		if c.Hook != nil {
			c.flow, c.flowTarget = FlowRet, c.PC
		}
		return
	}
	c.Cycles += 2
}

func (c *CPU) rst(addr uint16) {
	c.push16(c.PC)
	c.PC = addr
	c.Cycles += 8
	if c.Hook != nil {
		c.flow, c.flowTarget = FlowCall, addr
	}
}

// blockMove is LDI/LDD (once) or LDIR/LDDR (until BC is zero); step is
// +1 or -1.
func (c *CPU) blockMove(step uint16, repeat bool) {
	for {
		c.Mem.Write(c.de(), c.Mem.Read(c.hl()))
		c.setHL(c.hl() + step)
		c.setDE(c.de() + step)
		c.setBC(c.bc() - 1)
		c.Cycles += 7
		if !repeat || c.bc() == 0 {
			break
		}
	}
	c.F &^= FlagPV | FlagH | FlagN
	if c.bc() != 0 {
		c.F |= FlagPV
	}
}

// --- execution ---------------------------------------------------------------------

// Step executes one instruction and returns any decode error.
func (c *CPU) Step() error {
	if c.Hook != nil {
		return c.stepHooked()
	}
	if c.intPending && c.IFF && !c.ioPrefix {
		c.intPending = false
		c.IFF = false
		c.Halted = false
		c.push16(c.PC)
		c.PC = c.IntVector
		c.Cycles += 10
	}
	if c.Halted {
		c.Cycles += 2
		return nil
	}
	op := c.fetch8()
	c.Instructions++
	err := c.exec(op)
	c.ioPrefix = false
	return err
}

// stepHooked is Step with instruction-event emission. Every cycle
// charge — interrupt dispatch, halted idle, and retired instructions —
// produces an OnInstr event, so the sum of event Cycles tracks
// CPU.Cycles exactly.
func (c *CPU) stepHooked() error {
	if c.intPending && c.IFF && !c.ioPrefix {
		c.intPending = false
		c.IFF = false
		c.Halted = false
		from := c.PC
		c.push16(c.PC)
		c.PC = c.IntVector
		c.Cycles += 10
		c.Hook.OnInstr(InstrEvent{PC: from, Cycles: 10, Flow: FlowInt, Target: c.IntVector})
	}
	if c.Halted {
		c.Cycles += 2
		c.Hook.OnInstr(InstrEvent{PC: c.PC, Cycles: 2})
		return nil
	}
	pc := c.PC
	startCycles := c.Cycles
	c.flow = FlowNone
	op := c.fetch8()
	c.Instructions++
	err := c.exec(op)
	c.ioPrefix = false
	c.Hook.OnInstr(InstrEvent{
		PC:     pc,
		Op:     op,
		Cycles: c.Cycles - startCycles,
		Flow:   c.flow,
		Target: c.flowTarget,
	})
	return err
}

// Run executes until HALT, an error, or the cycle budget is exhausted.
// It returns the error, if any. Instructions run straight through the
// decoder; only with a hook attached or an interrupt pending does an
// iteration take Step's slower path.
func (c *CPU) Run(maxCycles uint64) error {
	start := c.Cycles
	for !c.Halted && c.Cycles-start < maxCycles {
		if c.Hook != nil || c.intPending {
			if err := c.Step(); err != nil {
				return err
			}
			continue
		}
		op := c.fetch8()
		c.Instructions++
		err := c.exec(op)
		c.ioPrefix = false
		if err != nil {
			return err
		}
	}
	if !c.Halted {
		return fmt.Errorf("rabbit: cycle budget %d exhausted at PC=%04x", maxCycles, c.PC)
	}
	return nil
}

// String renders the register file for diagnostics.
func (c *CPU) String() string {
	return fmt.Sprintf("A=%02x F=%02x BC=%04x DE=%04x HL=%04x IX=%04x IY=%04x SP=%04x PC=%04x cyc=%d",
		c.A, c.F, c.bc(), c.de(), c.hl(), c.IX, c.IY, c.SP, c.PC, c.Cycles)
}
