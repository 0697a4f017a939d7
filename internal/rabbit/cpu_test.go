package rabbit

import (
	"testing"
)

func (c *CPU) flag(f uint8) bool { return c.F&f != 0 }

// run loads code at 0 and executes until HALT (0x76), failing the test
// on decode errors or budget exhaustion.
func run(t *testing.T, code []byte) *CPU {
	t.Helper()
	c := New()
	c.Mem.LoadPhysical(0, code)
	if err := c.Run(2_000_000); err != nil {
		t.Fatalf("run: %v (%s)", err, c)
	}
	return c
}

func TestLoadImmediateAndHalt(t *testing.T) {
	c := run(t, []byte{
		0x3E, 0x42, // LD A,0x42
		0x06, 0x10, // LD B,0x10
		0x0E, 0x20, // LD C,0x20
		0x76, // HALT
	})
	if c.A != 0x42 || c.B != 0x10 || c.C != 0x20 {
		t.Errorf("A=%02x B=%02x C=%02x", c.A, c.B, c.C)
	}
	if c.Instructions != 4 {
		t.Errorf("instructions = %d", c.Instructions)
	}
}

func TestRegisterMoves(t *testing.T) {
	c := run(t, []byte{
		0x3E, 0x99, // LD A,0x99
		0x47, // LD B,A
		0x50, // LD D,B
		0x6A, // LD L,D
		0x76,
	})
	if c.B != 0x99 || c.D != 0x99 || c.L != 0x99 {
		t.Errorf("%s", c)
	}
}

func TestAddCarryAndOverflowFlags(t *testing.T) {
	// 0x7F + 1 = 0x80: overflow set, carry clear, sign set.
	c := run(t, []byte{0x3E, 0x7F, 0xC6, 0x01, 0x76}) // LD A,7F; ADD A,1
	if c.A != 0x80 || !c.flag(FlagPV) || c.flag(FlagC) || !c.flag(FlagS) {
		t.Errorf("ADD overflow: %s", c)
	}
	// 0xFF + 1 = 0x00: carry set, zero set.
	c = run(t, []byte{0x3E, 0xFF, 0xC6, 0x01, 0x76})
	if c.A != 0 || !c.flag(FlagC) || !c.flag(FlagZ) {
		t.Errorf("ADD carry: %s", c)
	}
}

func TestSubAndCompare(t *testing.T) {
	// 5 - 7 = -2: carry (borrow) set, sign set.
	c := run(t, []byte{0x3E, 0x05, 0xD6, 0x07, 0x76}) // SUB 7
	if c.A != 0xFE || !c.flag(FlagC) || !c.flag(FlagS) || !c.flag(FlagN) {
		t.Errorf("SUB: %s", c)
	}
	// CP leaves A alone but sets Z on equality.
	c = run(t, []byte{0x3E, 0x33, 0xFE, 0x33, 0x76}) // CP 0x33
	if c.A != 0x33 || !c.flag(FlagZ) {
		t.Errorf("CP: %s", c)
	}
}

func TestLogicOps(t *testing.T) {
	c := run(t, []byte{0x3E, 0xF0, 0xE6, 0x3C, 0x76}) // AND 0x3C
	if c.A != 0x30 || !c.flag(FlagH) || c.flag(FlagC) {
		t.Errorf("AND: %s", c)
	}
	c = run(t, []byte{0x3E, 0xF0, 0xEE, 0xFF, 0x76}) // XOR 0xFF
	if c.A != 0x0F {
		t.Errorf("XOR: %s", c)
	}
	c = run(t, []byte{0x3E, 0xF0, 0xF6, 0x0F, 0x76}) // OR 0x0F
	if c.A != 0xFF || c.flag(FlagZ) {
		t.Errorf("OR: %s", c)
	}
}

func TestIncDecFlags(t *testing.T) {
	c := run(t, []byte{0x3E, 0x7F, 0x3C, 0x76}) // INC A from 7F
	if c.A != 0x80 || !c.flag(FlagPV) || !c.flag(FlagS) {
		t.Errorf("INC overflow: %s", c)
	}
	c = run(t, []byte{0x3E, 0x01, 0x3D, 0x76}) // DEC A from 1
	if c.A != 0 || !c.flag(FlagZ) || !c.flag(FlagN) {
		t.Errorf("DEC to zero: %s", c)
	}
}

func TestMemoryLoadsThroughHL(t *testing.T) {
	c := New()
	c.Mem.LoadPhysical(0, []byte{
		0x21, 0x00, 0x40, // LD HL,0x4000
		0x36, 0xAB, // LD (HL),0xAB
		0x23,       // INC HL
		0x36, 0xCD, // LD (HL),0xCD
		0x2B, // DEC HL
		0x7E, // LD A,(HL)
		0x76,
	})
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.A != 0xAB || c.Mem.Read(0x4001) != 0xCD {
		t.Errorf("A=%02x mem=%02x", c.A, c.Mem.Read(0x4001))
	}
}

func TestSixteenBitLoadsAndAdd(t *testing.T) {
	c := run(t, []byte{
		0x21, 0x34, 0x12, // LD HL,0x1234
		0x01, 0x11, 0x11, // LD BC,0x1111
		0x09, // ADD HL,BC
		0x76,
	})
	if c.hl() != 0x2345 {
		t.Errorf("HL = %04x", c.hl())
	}
}

func TestPushPopAndExchange(t *testing.T) {
	c := run(t, []byte{
		0x21, 0x34, 0x12, // LD HL,0x1234
		0xE5,             // PUSH HL
		0x21, 0x78, 0x56, // LD HL,0x5678
		0xD1, // POP DE
		0xEB, // EX DE,HL
		0x76,
	})
	if c.hl() != 0x1234 || c.de() != 0x5678 {
		t.Errorf("HL=%04x DE=%04x", c.hl(), c.de())
	}
}

func TestAlternateRegisters(t *testing.T) {
	c := run(t, []byte{
		0x3E, 0x11, // LD A,0x11
		0x08,       // EX AF,AF'
		0x3E, 0x22, // LD A,0x22
		0x01, 0x44, 0x33, // LD BC,0x3344
		0xD9,             // EXX
		0x01, 0x66, 0x55, // LD BC,0x5566
		0x08, // EX AF,AF'  -> A=0x11 again
		0x76,
	})
	if c.A != 0x11 || c.bc() != 0x5566 || c.B2 != 0x33 {
		t.Errorf("A=%02x BC=%04x B2=%02x", c.A, c.bc(), c.B2)
	}
}

func TestJumpsAndConditions(t *testing.T) {
	// Count down from 5 using DJNZ; A accumulates iterations.
	c := run(t, []byte{
		0x06, 0x05, // LD B,5
		0x3E, 0x00, // LD A,0
		0x3C,       // loop: INC A
		0x10, 0xFD, // DJNZ loop (-3)
		0x76,
	})
	if c.A != 5 || c.B != 0 {
		t.Errorf("A=%d B=%d", c.A, c.B)
	}
}

func TestJRConditional(t *testing.T) {
	// JR NZ skips a load when Z clear.
	c := run(t, []byte{
		0x3E, 0x01, // LD A,1
		0xB7,       // OR A (clears Z)
		0x20, 0x02, // JR NZ,+2
		0x3E, 0xEE, // LD A,0xEE (skipped)
		0x76,
	})
	if c.A != 1 {
		t.Errorf("A = %02x", c.A)
	}
}

func TestCallRetStack(t *testing.T) {
	// CALL a subroutine that sets A, then RET.
	c := run(t, []byte{
		0xCD, 0x06, 0x00, // CALL 0x0006
		0x06, 0x07, // LD B,7
		0x76,       // HALT
		0x3E, 0x2A, // sub: LD A,0x2A
		0xC9, // RET
	})
	if c.A != 0x2A || c.B != 0x07 {
		t.Errorf("A=%02x B=%02x", c.A, c.B)
	}
	if c.SP != 0xDFFF {
		t.Errorf("SP = %04x, stack not balanced", c.SP)
	}
}

func TestConditionalRetAndCall(t *testing.T) {
	c := run(t, []byte{
		0xAF,             // XOR A (Z set)
		0xC4, 0x08, 0x00, // CALL NZ,sub (not taken)
		0xCC, 0x08, 0x00, // CALL Z,sub (taken)
		0x76,
		0x06, 0x99, // sub: LD B,0x99
		0xC8,       // RET Z
		0x06, 0x11, // LD B,0x11 (skipped: Z still set)
		0xC9,
	})
	if c.B != 0x99 {
		t.Errorf("B = %02x", c.B)
	}
}

func TestRotatesAndShifts(t *testing.T) {
	c := run(t, []byte{
		0x3E, 0x81, // LD A,0x81
		0x07, // RLCA -> 0x03, carry set
		0x76,
	})
	if c.A != 0x03 || !c.flag(FlagC) {
		t.Errorf("RLCA: %s", c)
	}
	c = run(t, []byte{
		0x3E, 0x02,
		0xCB, 0x27, // SLA A -> 4
		0xCB, 0x3F, // SRL A -> 2
		0xCB, 0x07, // RLC A -> 4
		0x76,
	})
	if c.A != 0x04 {
		t.Errorf("shift chain: A=%02x", c.A)
	}
}

func TestBitSetRes(t *testing.T) {
	c := run(t, []byte{
		0x3E, 0x00,
		0xCB, 0xDF, // SET 3,A
		0xCB, 0x5F, // BIT 3,A (Z clear)
		0x76,
	})
	if c.A != 0x08 || c.flag(FlagZ) {
		t.Errorf("SET/BIT: %s", c)
	}
	c = run(t, []byte{
		0x3E, 0xFF,
		0xCB, 0x87, // RES 0,A
		0x76,
	})
	if c.A != 0xFE {
		t.Errorf("RES: A=%02x", c.A)
	}
}

func TestIndexedAddressing(t *testing.T) {
	c := New()
	c.Mem.LoadPhysical(0, []byte{
		0xDD, 0x21, 0x00, 0x40, // LD IX,0x4000
		0xDD, 0x36, 0x05, 0x77, // LD (IX+5),0x77
		0xDD, 0x7E, 0x05, // LD A,(IX+5)
		0xFD, 0x21, 0x10, 0x40, // LD IY,0x4010
		0xFD, 0x70, 0xFE, // LD (IY-2),B ... B=0
		0x76,
	})
	c.B = 0x55
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.A != 0x77 || c.Mem.Read(0x4005) != 0x77 {
		t.Errorf("IX: A=%02x", c.A)
	}
	if c.Mem.Read(0x400E) != 0x55 {
		t.Errorf("IY-2 write = %02x", c.Mem.Read(0x400E))
	}
}

func TestLDIRBlockCopy(t *testing.T) {
	c := New()
	src := []byte("rabbit 2000 block move")
	c.Mem.LoadPhysical(0x4000, src)
	c.Mem.LoadPhysical(0, []byte{
		0x21, 0x00, 0x40, // LD HL,0x4000
		0x11, 0x00, 0x50, // LD DE,0x5000
		0x01, byte(len(src)), 0x00, // LD BC,len
		0xED, 0xB0, // LDIR
		0x76,
	})
	if err := c.Run(10000); err != nil {
		t.Fatal(err)
	}
	for i, b := range src {
		if c.Mem.Read(uint16(0x5000+i)) != b {
			t.Fatalf("byte %d = %02x, want %02x", i, c.Mem.Read(uint16(0x5000+i)), b)
		}
	}
	if c.bc() != 0 || c.flag(FlagPV) {
		t.Errorf("after LDIR: BC=%04x PV=%v", c.bc(), c.flag(FlagPV))
	}
}

func TestSBCADCHLAndNEG(t *testing.T) {
	c := run(t, []byte{
		0x21, 0x00, 0x10, // LD HL,0x1000
		0x01, 0x01, 0x00, // LD BC,1
		0xB7,       // OR A (clear carry)
		0xED, 0x42, // SBC HL,BC
		0x76,
	})
	if c.hl() != 0x0FFF {
		t.Errorf("SBC HL: %04x", c.hl())
	}
	c = run(t, []byte{0x3E, 0x01, 0xED, 0x44, 0x76}) // NEG
	if c.A != 0xFF || !c.flag(FlagC) {
		t.Errorf("NEG: %s", c)
	}
}

func TestDAA(t *testing.T) {
	// BCD 15 + 27 = 42.
	c := run(t, []byte{0x3E, 0x15, 0xC6, 0x27, 0x27, 0x76}) // ADD then DAA
	if c.A != 0x42 {
		t.Errorf("DAA: A=%02x, want 42 BCD", c.A)
	}
}

func TestEDRegisterPairLoads(t *testing.T) {
	c := run(t, []byte{
		0x01, 0x34, 0x12, // LD BC,0x1234
		0xED, 0x43, 0x00, 0x60, // LD (0x6000),BC
		0xED, 0x5B, 0x00, 0x60, // LD DE,(0x6000)
		0x76,
	})
	if c.de() != 0x1234 {
		t.Errorf("DE = %04x", c.de())
	}
}

func TestHaltStopsAndCounts(t *testing.T) {
	c := run(t, []byte{0x76})
	if !c.Halted {
		t.Error("not halted")
	}
	before := c.Cycles
	c.Step() // halted CPU burns cycles but does nothing
	if c.Cycles == before || c.PC != 1 {
		t.Errorf("halted step: %s", c)
	}
}

func TestIllegalOpcode(t *testing.T) {
	c := New()
	c.Mem.LoadPhysical(0, []byte{0xDB, 0x00}) // IOE prefix unmodeled
	if err := c.Run(100); err == nil {
		t.Error("illegal opcode not reported")
	}
}

func TestInterruptDispatch(t *testing.T) {
	c := New()
	// Main: EI, then spin incrementing B. ISR at 0x40: set A, RETI... but
	// RETI returns into the loop; we detect via A and halt from ISR.
	c.Mem.LoadPhysical(0, []byte{
		0xFB,       // EI
		0x04,       // loop: INC B
		0x18, 0xFD, // JR loop
	})
	c.Mem.LoadPhysical(0x40, []byte{
		0x3E, 0x77, // LD A,0x77
		0x76, // HALT inside ISR
	})
	c.IntVector = 0x40
	for i := 0; i < 10; i++ {
		c.Step()
	}
	c.RaiseInt()
	for i := 0; i < 10 && !c.Halted; i++ {
		c.Step()
	}
	if c.A != 0x77 {
		t.Errorf("ISR did not run: %s", c)
	}
	if c.IFF {
		t.Error("interrupts not disabled during ISR")
	}
}

func TestInterruptIgnoredWhenDisabled(t *testing.T) {
	c := New()
	c.Mem.LoadPhysical(0, []byte{0x04, 0x04, 0x04, 0x76}) // INC B x3, HALT
	c.IntVector = 0x40
	c.RaiseInt() // IFF false: must not dispatch
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.B != 3 {
		t.Errorf("B = %d; interrupt taken while disabled?", c.B)
	}
}

func TestRST(t *testing.T) {
	c := New()
	c.Mem.LoadPhysical(0x18, []byte{0x3E, 0x66, 0xC9}) // RST 18h target
	c.Mem.LoadPhysical(0x100, []byte{0xDF, 0x76})      // RST 18h; HALT
	c.PC = 0x100
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.A != 0x66 {
		t.Errorf("A = %02x", c.A)
	}
}

// --- MMU tests -------------------------------------------------------------------

func TestMMURootIsIdentity(t *testing.T) {
	m := NewMemory()
	if m.Physical(0x1234) != 0x1234 {
		t.Errorf("root mapping not identity: %05x", m.Physical(0x1234))
	}
}

func TestMMUXPCWindow(t *testing.T) {
	m := NewMemory()
	m.SetMMU(XPCReg, 0x20) // window at 0xE000 maps to 0x20000+0xE000
	got := m.Physical(0xE000)
	if got != 0x20000+0xE000 {
		t.Errorf("XPC mapping = %05x", got)
	}
	// Changing XPC re-banks the same logical address.
	m.SetMMU(XPCReg, 0x21)
	if m.Physical(0xE000) != 0x21000+0xE000 {
		t.Errorf("rebank = %05x", m.Physical(0xE000))
	}
}

func TestMMUStackSegment(t *testing.T) {
	m := NewMemory()
	m.SetMMU(StackSegReg, 0x05)
	if m.Physical(0xD800) != 0x5000+0xD800 {
		t.Errorf("stack seg = %05x", m.Physical(0xD800))
	}
}

func TestMMUDataSegment(t *testing.T) {
	m := NewMemory()
	m.SetMMU(SegSizeReg, 0x06) // data segment starts at 0x6000
	m.SetMMU(DataSegReg, 0x10)
	if m.Physical(0x5FFF) != 0x5FFF {
		t.Error("below boundary should be root")
	}
	if m.Physical(0x6000) != 0x10000+0x6000 {
		t.Errorf("data seg = %05x", m.Physical(0x6000))
	}
}

func TestMMUWrap20Bits(t *testing.T) {
	m := NewMemory()
	m.SetMMU(XPCReg, 0xFF)
	got := m.Physical(0xFFFF)
	if got >= PhysMemSize {
		t.Errorf("physical address %x exceeds 20 bits", got)
	}
}

func TestFlashWriteProtect(t *testing.T) {
	m := NewMemory()
	m.FlashEnd = 0x1000
	m.Phys[0x500] = 0xAA
	m.Write(0x500, 0x55)
	if m.Phys[0x500] != 0xAA {
		t.Error("flash was modified")
	}
	if m.IgnoredWrites != 1 {
		t.Errorf("ignored writes = %d", m.IgnoredWrites)
	}
	m.Write(0x2000, 0x55) // RAM above flash is writable
	if m.Read(0x2000) != 0x55 {
		t.Error("RAM write failed")
	}
}

func TestIOIPrefix(t *testing.T) {
	bus := &recordingBus{regs: map[uint16]uint8{0x0155: 0x5A}}
	c := New()
	c.IO = bus
	c.Mem.LoadPhysical(0, []byte{
		0x3E, 0x42, // LD A,0x42
		0xD3, 0x32, 0x20, 0x01, // IOI LD (0x0120),A
		0xD3, 0x3A, 0x55, 0x01, // IOI LD A,(0x0155)
		0x32, 0x00, 0x40, // LD (0x4000),A  (normal memory)
		0x76,
	})
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if bus.regs[0x0120] != 0x42 {
		t.Errorf("I/O write = %02x", bus.regs[0x0120])
	}
	if c.A != 0x5A {
		t.Errorf("I/O read: A=%02x", c.A)
	}
	if c.Mem.Read(0x4000) != 0x5A {
		t.Error("memory write after IOI misrouted")
	}
}

type recordingBus struct{ regs map[uint16]uint8 }

func (b *recordingBus) In(p uint16) uint8     { return b.regs[p] }
func (b *recordingBus) Out(p uint16, v uint8) { b.regs[p] = v }

func TestCyclesAccumulate(t *testing.T) {
	c := run(t, []byte{0x00, 0x00, 0x76}) // NOP NOP HALT
	if c.Cycles < 4 {
		t.Errorf("cycles = %d", c.Cycles)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	c := New()
	c.Mem.LoadPhysical(0, []byte{0x18, 0xFE}) // JR -2 (infinite loop)
	if err := c.Run(1000); err == nil {
		t.Error("infinite loop not caught by budget")
	}
}
