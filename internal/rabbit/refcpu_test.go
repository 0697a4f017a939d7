package rabbit

// The reference decoder: the simulator's original nested x/y/z
// decoder, kept verbatim (methods renamed with a ref prefix) as the
// lockstep oracle for the table-dispatched one in ops.go. Memory goes
// through the original range-switch MMU (refPhysical) rather than the
// page table, so the oracle shares no decode or translation code with
// production.

import "fmt"

// refPhysical is the original MMU translation: a range switch over the
// segment registers on every access.
func refPhysical(m *Memory, logical uint16) uint32 {
	l := uint32(logical)
	dataBase := uint32(m.MMU(SegSizeReg)&0x0f) << 12
	switch {
	case l >= XPCSegBase:
		return (l + uint32(m.MMU(XPCReg))<<12) & (PhysMemSize - 1)
	case l >= StackSegBase:
		return (l + uint32(m.MMU(StackSegReg))<<12) & (PhysMemSize - 1)
	case l >= dataBase:
		return (l + uint32(m.MMU(DataSegReg))<<12) & (PhysMemSize - 1)
	default:
		return l
	}
}

func (c *CPU) refRead(addr uint16) byte {
	return c.Mem.Phys[refPhysical(c.Mem, addr)]
}

func (c *CPU) refWrite(addr uint16, v byte) {
	p := refPhysical(c.Mem, addr)
	if p < c.Mem.FlashEnd {
		c.Mem.IgnoredWrites++
		return
	}
	c.Mem.Phys[p] = v
}

func (c *CPU) refRead16(addr uint16) uint16 {
	return uint16(c.refRead(addr)) | uint16(c.refRead(addr+1))<<8
}

func (c *CPU) refWrite16(addr uint16, v uint16) {
	c.refWrite(addr, byte(v))
	c.refWrite(addr+1, byte(v>>8))
}

// refGetRP reads register pair p (0=BC 1=DE 2=HL 3=SP).
func (c *CPU) refGetRP(p int, ix *uint16) uint16 {
	switch p {
	case 0:
		return c.bc()
	case 1:
		return c.de()
	case 2:
		if ix != nil {
			return *ix
		}
		return c.hl()
	default:
		return c.SP
	}
}

func (c *CPU) refSetRP(p int, ix *uint16, v uint16) {
	switch p {
	case 0:
		c.setBC(v)
	case 1:
		c.setDE(v)
	case 2:
		if ix != nil {
			*ix = v
		} else {
			c.setHL(v)
		}
	default:
		c.SP = v
	}
}

// refGetRP2 is refGetRP with AF instead of SP (PUSH/POP encoding).
func (c *CPU) refGetRP2(p int, ix *uint16) uint16 {
	if p == 3 {
		return c.af()
	}
	return c.refGetRP(p, ix)
}

func (c *CPU) refSetRP2(p int, ix *uint16, v uint16) {
	if p == 3 {
		c.setAF(v)
		return
	}
	c.refSetRP(p, ix, v)
}

// refMemRead8 honors the IOI prefix for operand access.
func (c *CPU) refMemRead8(addr uint16) uint8 {
	if c.ioPrefix {
		return c.IO.In(addr)
	}
	return c.refRead(addr)
}

func (c *CPU) refMemWrite8(addr uint16, v uint8) {
	if c.ioPrefix {
		c.IO.Out(addr, v)
		return
	}
	c.refWrite(addr, v)
}

// refGetR reads register index r (6 = (HL) or (IX+d)).
func (c *CPU) refGetR(r int, ix *uint16, d int8) uint8 {
	switch r {
	case 0:
		return c.B
	case 1:
		return c.C
	case 2:
		return c.D
	case 3:
		return c.E
	case 4:
		return c.H
	case 5:
		return c.L
	case 6:
		if ix != nil {
			return c.refMemRead8(uint16(int32(*ix) + int32(d)))
		}
		return c.refMemRead8(c.hl())
	default:
		return c.A
	}
}

func (c *CPU) refSetR(r int, ix *uint16, d int8, v uint8) {
	switch r {
	case 0:
		c.B = v
	case 1:
		c.C = v
	case 2:
		c.D = v
	case 3:
		c.E = v
	case 4:
		c.H = v
	case 5:
		c.L = v
	case 6:
		if ix != nil {
			c.refMemWrite8(uint16(int32(*ix)+int32(d)), v)
		} else {
			c.refMemWrite8(c.hl(), v)
		}
	default:
		c.A = v
	}
}

// --- fetch helpers -------------------------------------------------------------

func (c *CPU) refFetch8() uint8 {
	v := c.refRead(c.PC)
	c.PC++
	return v
}

func (c *CPU) refFetch16() uint16 {
	lo := c.refFetch8()
	hi := c.refFetch8()
	return uint16(hi)<<8 | uint16(lo)
}

func (c *CPU) refPush16(v uint16) {
	c.SP -= 2
	c.refWrite16(c.SP, v)
}

func (c *CPU) refPop16() uint16 {
	v := c.refRead16(c.SP)
	c.SP += 2
	return v
}

// --- flags -----------------------------------------------------------------------

func refParity(v uint8) bool {
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return v&1 == 0
}

func (c *CPU) refSetFlag(f uint8, on bool) {
	if on {
		c.F |= f
	} else {
		c.F &^= f
	}
}

func (c *CPU) refFlag(f uint8) bool { return c.F&f != 0 }

// refSZP sets S, Z and parity-as-PV from an 8-bit result.
func (c *CPU) refSZP(v uint8) {
	c.refSetFlag(FlagS, v&0x80 != 0)
	c.refSetFlag(FlagZ, v == 0)
	c.refSetFlag(FlagPV, refParity(v))
}

// refCond evaluates condition code y (NZ Z NC C PO PE P M).
func (c *CPU) refCond(y int) bool {
	switch y {
	case 0:
		return !c.refFlag(FlagZ)
	case 1:
		return c.refFlag(FlagZ)
	case 2:
		return !c.refFlag(FlagC)
	case 3:
		return c.refFlag(FlagC)
	case 4:
		return !c.refFlag(FlagPV)
	case 5:
		return c.refFlag(FlagPV)
	case 6:
		return !c.refFlag(FlagS)
	default:
		return c.refFlag(FlagS)
	}
}

// --- ALU -------------------------------------------------------------------------

// refALU performs operation y (ADD ADC SUB SBC AND XOR OR CP) on A and v.
func (c *CPU) refALU(y int, v uint8) {
	a := c.A
	switch y {
	case 0, 1: // ADD / ADC
		carry := uint16(0)
		if y == 1 && c.refFlag(FlagC) {
			carry = 1
		}
		r := uint16(a) + uint16(v) + carry
		res := uint8(r)
		c.refSetFlag(FlagC, r > 0xff)
		c.refSetFlag(FlagH, a&0x0f+v&0x0f+uint8(carry) > 0x0f)
		c.refSetFlag(FlagN, false)
		c.refSetFlag(FlagS, res&0x80 != 0)
		c.refSetFlag(FlagZ, res == 0)
		c.refSetFlag(FlagPV, (a^res)&(v^res)&0x80 != 0) // signed overflow
		c.A = res
	case 2, 3, 7: // SUB / SBC / CP
		carry := uint16(0)
		if y == 3 && c.refFlag(FlagC) {
			carry = 1
		}
		r := uint16(a) - uint16(v) - carry
		res := uint8(r)
		c.refSetFlag(FlagC, r > 0xff) // borrow
		c.refSetFlag(FlagH, uint16(a&0x0f) < uint16(v&0x0f)+carry)
		c.refSetFlag(FlagN, true)
		c.refSetFlag(FlagS, res&0x80 != 0)
		c.refSetFlag(FlagZ, res == 0)
		c.refSetFlag(FlagPV, (a^v)&(a^res)&0x80 != 0)
		if y != 7 {
			c.A = res
		}
	case 4: // AND
		c.A = a & v
		c.refSZP(c.A)
		c.refSetFlag(FlagH, true)
		c.refSetFlag(FlagN, false)
		c.refSetFlag(FlagC, false)
	case 5: // XOR
		c.A = a ^ v
		c.refSZP(c.A)
		c.refSetFlag(FlagH, false)
		c.refSetFlag(FlagN, false)
		c.refSetFlag(FlagC, false)
	case 6: // OR
		c.A = a | v
		c.refSZP(c.A)
		c.refSetFlag(FlagH, false)
		c.refSetFlag(FlagN, false)
		c.refSetFlag(FlagC, false)
	}
}

func (c *CPU) refInc8(v uint8) uint8 {
	r := v + 1
	c.refSetFlag(FlagS, r&0x80 != 0)
	c.refSetFlag(FlagZ, r == 0)
	c.refSetFlag(FlagH, v&0x0f == 0x0f)
	c.refSetFlag(FlagPV, v == 0x7f)
	c.refSetFlag(FlagN, false)
	return r
}

func (c *CPU) refDec8(v uint8) uint8 {
	r := v - 1
	c.refSetFlag(FlagS, r&0x80 != 0)
	c.refSetFlag(FlagZ, r == 0)
	c.refSetFlag(FlagH, v&0x0f == 0)
	c.refSetFlag(FlagPV, v == 0x80)
	c.refSetFlag(FlagN, true)
	return r
}

func (c *CPU) refAddHL(hl, v uint16) uint16 {
	r := uint32(hl) + uint32(v)
	c.refSetFlag(FlagC, r > 0xffff)
	c.refSetFlag(FlagH, hl&0x0fff+v&0x0fff > 0x0fff)
	c.refSetFlag(FlagN, false)
	return uint16(r)
}

// RefStep executes one instruction and returns any decode error.
func (c *CPU) RefStep() error {
	if c.Hook != nil {
		return c.refStepHooked()
	}
	if c.intPending && c.IFF && !c.ioPrefix {
		c.intPending = false
		c.IFF = false
		c.Halted = false
		c.refPush16(c.PC)
		c.PC = c.IntVector
		c.Cycles += 10
	}
	if c.Halted {
		c.Cycles += 2
		return nil
	}
	op := c.refFetch8()
	c.Instructions++
	err := c.refExec(op, nil)
	c.ioPrefix = false
	return err
}

// refStepHooked is RefStep with instruction-event emission. Every cycle
// charge — interrupt dispatch, halted idle, and retired instructions —
// produces an OnInstr event, so the sum of event Cycles tracks
// CPU.Cycles exactly.
func (c *CPU) refStepHooked() error {
	if c.intPending && c.IFF && !c.ioPrefix {
		c.intPending = false
		c.IFF = false
		c.Halted = false
		from := c.PC
		c.refPush16(c.PC)
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
	op := c.refFetch8()
	c.Instructions++
	err := c.refExec(op, nil)
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

// RefRun executes until HALT, an error, or the cycle budget is exhausted.
// It returns the error, if any.
func (c *CPU) RefRun(maxCycles uint64) error {
	start := c.Cycles
	for !c.Halted && c.Cycles-start < maxCycles {
		if err := c.RefStep(); err != nil {
			return err
		}
	}
	if !c.Halted {
		return fmt.Errorf("rabbit: cycle budget %d exhausted at PC=%04x", maxCycles, c.PC)
	}
	return nil
}

// refExec decodes and executes one primary opcode. ix is non-nil when a
// DD (IX) or FD (IY) prefix is active. Decoding follows the standard
// x/y/z scheme: x = op>>6, y = (op>>3)&7, z = op&7, p = y>>1, q = y&1.
//
// Cycle counts approximate the Rabbit 2000 user's manual; register
// operations are cheap (2 clocks), memory operands cost ~5–7,
// call/ret/push/pop ~8–12, prefixed index forms add ~4.
func (c *CPU) refExec(op uint8, ix *uint16) error {
	x := int(op >> 6)
	y := int(op >> 3 & 7)
	z := int(op & 7)
	p := y >> 1
	q := y & 1

	// Displacement for (IX+d) forms is fetched lazily: only
	// instructions that actually use operand 6 with a prefix have one.
	var d int8
	fetchD := func() {
		if ix != nil {
			d = int8(c.refFetch8())
		}
	}
	idxCost := uint64(0)
	if ix != nil {
		idxCost = 4
	}

	switch x {
	case 1: // LD r,r' | HALT
		if y == 6 && z == 6 {
			c.Halted = true
			c.Cycles += 2
			return nil
		}
		if y == 6 || z == 6 {
			fetchD()
			c.Cycles += 5 + idxCost
		} else {
			c.Cycles += 2
		}
		c.refSetR(y, ix, d, c.refGetR(z, ix, d))
		return nil

	case 2: // ALU A, r
		if z == 6 {
			fetchD()
			c.Cycles += 5 + idxCost
		} else {
			c.Cycles += 2
		}
		c.refALU(y, c.refGetR(z, ix, d))
		return nil
	}

	if x == 0 {
		switch z {
		case 0:
			switch y {
			case 0: // NOP
				c.Cycles += 2
			case 1: // EX AF,AF'
				c.A, c.A2 = c.A2, c.A
				c.F, c.F2 = c.F2, c.F
				c.Cycles += 2
			case 2: // DJNZ d
				e := int8(c.refFetch8())
				c.B--
				if c.B != 0 {
					c.PC = uint16(int32(c.PC) + int32(e))
					c.Cycles += 7
				} else {
					c.Cycles += 5
				}
			case 3: // JR d
				e := int8(c.refFetch8())
				c.PC = uint16(int32(c.PC) + int32(e))
				c.Cycles += 5
			default: // JR cc,d
				e := int8(c.refFetch8())
				if c.refCond(y - 4) {
					c.PC = uint16(int32(c.PC) + int32(e))
					c.Cycles += 7
				} else {
					c.Cycles += 5
				}
			}
		case 1:
			if q == 0 { // LD rp,nn
				c.refSetRP(p, ix, c.refFetch16())
				c.Cycles += 6 + idxCost
			} else { // ADD HL,rp
				hl := c.refGetRP(2, ix)
				c.refSetRP(2, ix, c.refAddHL(hl, c.refGetRP(p, ix)))
				c.Cycles += 2 + idxCost
			}
		case 2:
			switch y {
			case 0: // LD (BC),A
				c.refMemWrite8(c.bc(), c.A)
				c.Cycles += 6
			case 1: // LD A,(BC)
				c.A = c.refMemRead8(c.bc())
				c.Cycles += 6
			case 2: // LD (DE),A
				c.refMemWrite8(c.de(), c.A)
				c.Cycles += 6
			case 3: // LD A,(DE)
				c.A = c.refMemRead8(c.de())
				c.Cycles += 6
			case 4: // LD (nn),HL
				addr := c.refFetch16()
				hl := c.refGetRP(2, ix)
				if c.ioPrefix {
					c.IO.Out(addr, uint8(hl))
					c.IO.Out(addr+1, uint8(hl>>8))
				} else {
					c.refWrite16(addr, hl)
				}
				c.Cycles += 11 + idxCost
			case 5: // LD HL,(nn)
				addr := c.refFetch16()
				var v uint16
				if c.ioPrefix {
					v = uint16(c.IO.In(addr)) | uint16(c.IO.In(addr+1))<<8
				} else {
					v = c.refRead16(addr)
				}
				c.refSetRP(2, ix, v)
				c.Cycles += 9 + idxCost
			case 6: // LD (nn),A
				c.refMemWrite8(c.refFetch16(), c.A)
				c.Cycles += 8
			default: // LD A,(nn)
				c.A = c.refMemRead8(c.refFetch16())
				c.Cycles += 6
			}
		case 3: // INC/DEC rp
			v := c.refGetRP(p, ix)
			if q == 0 {
				v++
			} else {
				v--
			}
			c.refSetRP(p, ix, v)
			c.Cycles += 2 + idxCost
		case 4: // INC r
			if y == 6 {
				fetchD()
				c.Cycles += 8 + idxCost
			} else {
				c.Cycles += 2
			}
			c.refSetR(y, ix, d, c.refInc8(c.refGetR(y, ix, d)))
		case 5: // DEC r
			if y == 6 {
				fetchD()
				c.Cycles += 8 + idxCost
			} else {
				c.Cycles += 2
			}
			c.refSetR(y, ix, d, c.refDec8(c.refGetR(y, ix, d)))
		case 6: // LD r,n
			if y == 6 {
				fetchD()
				c.refSetR(y, ix, d, c.refFetch8())
				c.Cycles += 7 + idxCost
			} else {
				c.refSetR(y, ix, d, c.refFetch8())
				c.Cycles += 4
			}
		case 7:
			switch y {
			case 0: // RLCA
				carry := c.A >> 7
				c.A = c.A<<1 | carry
				c.refSetFlag(FlagC, carry != 0)
				c.refSetFlag(FlagH, false)
				c.refSetFlag(FlagN, false)
			case 1: // RRCA
				carry := c.A & 1
				c.A = c.A>>1 | carry<<7
				c.refSetFlag(FlagC, carry != 0)
				c.refSetFlag(FlagH, false)
				c.refSetFlag(FlagN, false)
			case 2: // RLA
				carry := c.A >> 7
				c.A <<= 1
				if c.refFlag(FlagC) {
					c.A |= 1
				}
				c.refSetFlag(FlagC, carry != 0)
				c.refSetFlag(FlagH, false)
				c.refSetFlag(FlagN, false)
			case 3: // RRA
				carry := c.A & 1
				c.A >>= 1
				if c.refFlag(FlagC) {
					c.A |= 0x80
				}
				c.refSetFlag(FlagC, carry != 0)
				c.refSetFlag(FlagH, false)
				c.refSetFlag(FlagN, false)
			case 4: // DAA
				c.refDAA()
			case 5: // CPL
				c.A = ^c.A
				c.refSetFlag(FlagH, true)
				c.refSetFlag(FlagN, true)
			case 6: // SCF
				c.refSetFlag(FlagC, true)
				c.refSetFlag(FlagH, false)
				c.refSetFlag(FlagN, false)
			default: // CCF
				c.refSetFlag(FlagH, c.refFlag(FlagC))
				c.refSetFlag(FlagC, !c.refFlag(FlagC))
				c.refSetFlag(FlagN, false)
			}
			c.Cycles += 2
		}
		return nil
	}

	// x == 3
	switch z {
	case 0: // RET cc
		if c.refCond(y) {
			c.PC = c.refPop16()
			c.Cycles += 8
			if c.Hook != nil {
				c.flow, c.flowTarget = FlowRet, c.PC
			}
		} else {
			c.Cycles += 2
		}
	case 1:
		if q == 0 { // POP rp2
			c.refSetRP2(p, ix, c.refPop16())
			c.Cycles += 7 + idxCost
		} else {
			switch p {
			case 0: // RET
				c.PC = c.refPop16()
				c.Cycles += 8
				if c.Hook != nil {
					c.flow, c.flowTarget = FlowRet, c.PC
				}
			case 1: // EXX
				c.B, c.B2 = c.B2, c.B
				c.C, c.C2 = c.C2, c.C
				c.D, c.D2 = c.D2, c.D
				c.E, c.E2 = c.E2, c.E
				c.H, c.H2 = c.H2, c.H
				c.L, c.L2 = c.L2, c.L
				c.Cycles += 2
			case 2: // JP (HL)
				c.PC = c.refGetRP(2, ix)
				c.Cycles += 4
			default: // LD SP,HL
				c.SP = c.refGetRP(2, ix)
				c.Cycles += 2
			}
		}
	case 2: // JP cc,nn
		addr := c.refFetch16()
		if c.refCond(y) {
			c.PC = addr
		}
		c.Cycles += 7
	case 3:
		switch y {
		case 0: // JP nn
			c.PC = c.refFetch16()
			c.Cycles += 7
		case 1: // CB prefix
			return c.refExecCB(ix)
		case 2: // 0xD3: IOI prefix (Rabbit; Z80 used this for OUT (n),A)
			c.ioPrefix = true
			c.Cycles += 2
			op2 := c.refFetch8()
			c.Instructions++
			err := c.refExec(op2, nil)
			c.ioPrefix = false
			return err
		case 3: // 0xDB: unsupported (Z80 IN A,(n); Rabbit IOE prefix)
			return fmt.Errorf("%w: %02x (IOE prefix not modeled)", ErrIllegalOpcode, op)
		case 4: // EX (SP),HL
			hl := c.refGetRP(2, ix)
			v := c.refRead16(c.SP)
			c.refWrite16(c.SP, hl)
			c.refSetRP(2, ix, v)
			c.Cycles += 15 + idxCost
		case 5: // EX DE,HL
			de := c.de()
			c.setDE(c.hl())
			c.setHL(de)
			c.Cycles += 2
		case 6: // DI
			c.IFF = false
			c.Cycles += 4
		default: // EI
			c.IFF = true
			c.Cycles += 4
		}
	case 4: // CALL cc,nn
		addr := c.refFetch16()
		if c.refCond(y) {
			c.refPush16(c.PC)
			c.PC = addr
			c.Cycles += 12
			if c.Hook != nil {
				c.flow, c.flowTarget = FlowCall, addr
			}
		} else {
			c.Cycles += 7
		}
	case 5:
		if q == 0 { // PUSH rp2
			c.refPush16(c.refGetRP2(p, ix))
			c.Cycles += 10 + idxCost
		} else {
			switch p {
			case 0: // CALL nn
				addr := c.refFetch16()
				c.refPush16(c.PC)
				c.PC = addr
				c.Cycles += 12
				if c.Hook != nil {
					c.flow, c.flowTarget = FlowCall, addr
				}
			case 1: // DD prefix
				return c.refExecPrefixed(&c.IX)
			case 2: // ED prefix
				return c.refExecED()
			default: // FD prefix
				return c.refExecPrefixed(&c.IY)
			}
		}
	case 6: // ALU A,n
		c.refALU(y, c.refFetch8())
		c.Cycles += 4
	case 7: // RST y*8
		c.refPush16(c.PC)
		c.PC = uint16(y * 8)
		c.Cycles += 8
		if c.Hook != nil {
			c.flow, c.flowTarget = FlowCall, c.PC
		}
	}
	return nil
}

// refExecPrefixed handles a DD/FD prefix byte.
func (c *CPU) refExecPrefixed(ix *uint16) error {
	op := c.refFetch8()
	switch op {
	case 0xDD:
		return c.refExecPrefixed(&c.IX)
	case 0xFD:
		return c.refExecPrefixed(&c.IY)
	case 0xCB:
		return c.refExecDDCB(ix)
	case 0xED:
		return c.refExecED()
	}
	return c.refExec(op, ix)
}

// refDAA implements decimal adjust (Z80 semantics).
func (c *CPU) refDAA() {
	a := c.A
	var adjust uint8
	carry := c.refFlag(FlagC)
	if c.refFlag(FlagH) || a&0x0f > 9 {
		adjust = 0x06
	}
	if carry || a > 0x99 {
		adjust |= 0x60
		carry = true
	}
	if c.refFlag(FlagN) {
		c.refSetFlag(FlagH, c.refFlag(FlagH) && a&0x0f < 6)
		a -= adjust
	} else {
		c.refSetFlag(FlagH, a&0x0f > 9)
		a += adjust
	}
	c.A = a
	c.refSetFlag(FlagC, carry)
	c.refSetFlag(FlagZ, a == 0)
	c.refSetFlag(FlagS, a&0x80 != 0)
	c.refSetFlag(FlagPV, refParity(a))
}

// refExecCB handles the CB prefix: rotates, shifts, and bit operations.
func (c *CPU) refExecCB(ix *uint16) error {
	// With DD CB the displacement precedes the final opcode; handled
	// by execDDCB. Here ix is nil.
	op := c.refFetch8()
	x := int(op >> 6)
	y := int(op >> 3 & 7)
	z := int(op & 7)
	cost := uint64(4)
	if z == 6 {
		cost = 10
	}
	c.Cycles += cost
	switch x {
	case 0: // rotate/shift
		v := c.refGetR(z, nil, 0)
		c.refSetR(z, nil, 0, c.refRotOp(y, v))
	case 1: // BIT y,r
		v := c.refGetR(z, nil, 0)
		c.refSetFlag(FlagZ, v&(1<<uint(y)) == 0)
		c.refSetFlag(FlagH, true)
		c.refSetFlag(FlagN, false)
	case 2: // RES y,r
		v := c.refGetR(z, nil, 0)
		c.refSetR(z, nil, 0, v&^(1<<uint(y)))
	case 3: // SET y,r
		v := c.refGetR(z, nil, 0)
		c.refSetR(z, nil, 0, v|1<<uint(y))
	}
	_ = ix
	return nil
}

// refExecDDCB handles DD/FD CB d op — bit operations on (IX+d).
func (c *CPU) refExecDDCB(ix *uint16) error {
	d := int8(c.refFetch8())
	op := c.refFetch8()
	x := int(op >> 6)
	y := int(op >> 3 & 7)
	addr := uint16(int32(*ix) + int32(d))
	c.Cycles += 12
	v := c.refRead(addr)
	switch x {
	case 0:
		c.refWrite(addr, c.refRotOp(y, v))
	case 1:
		c.refSetFlag(FlagZ, v&(1<<uint(y)) == 0)
		c.refSetFlag(FlagH, true)
		c.refSetFlag(FlagN, false)
	case 2:
		c.refWrite(addr, v&^(1<<uint(y)))
	case 3:
		c.refWrite(addr, v|1<<uint(y))
	}
	return nil
}

// refRotOp applies rotate/shift operation y to v, setting flags.
func (c *CPU) refRotOp(y int, v uint8) uint8 {
	var r uint8
	var carry bool
	switch y {
	case 0: // RLC
		carry = v&0x80 != 0
		r = v<<1 | v>>7
	case 1: // RRC
		carry = v&1 != 0
		r = v>>1 | v<<7
	case 2: // RL
		carry = v&0x80 != 0
		r = v << 1
		if c.refFlag(FlagC) {
			r |= 1
		}
	case 3: // RR
		carry = v&1 != 0
		r = v >> 1
		if c.refFlag(FlagC) {
			r |= 0x80
		}
	case 4: // SLA
		carry = v&0x80 != 0
		r = v << 1
	case 5: // SRA
		carry = v&1 != 0
		r = v>>1 | v&0x80
	case 6: // SLL (undocumented on Z80; kept for completeness)
		carry = v&0x80 != 0
		r = v<<1 | 1
	default: // SRL
		carry = v&1 != 0
		r = v >> 1
	}
	c.refSZP(r)
	c.refSetFlag(FlagC, carry)
	c.refSetFlag(FlagH, false)
	c.refSetFlag(FlagN, false)
	return r
}

// refExecED handles the ED prefix subset the toolchain emits.
func (c *CPU) refExecED() error {
	op := c.refFetch8()
	switch op {
	case 0x44: // NEG
		v := c.A
		c.A = 0
		c.refALU(2, v) // SUB v from 0
		c.Cycles += 4
		return nil
	case 0x4D: // RETI
		c.PC = c.refPop16()
		c.Cycles += 12
		if c.Hook != nil {
			c.flow, c.flowTarget = FlowRet, c.PC
		}
		return nil
	case 0xA0, 0xA8, 0xB0, 0xB8: // LDI / LDD / LDIR / LDDR
		step := int32(1)
		if op == 0xA8 || op == 0xB8 {
			step = -1
		}
		repeat := op == 0xB0 || op == 0xB8
		for {
			c.refWrite(c.de(), c.refRead(c.hl()))
			c.setHL(uint16(int32(c.hl()) + step))
			c.setDE(uint16(int32(c.de()) + step))
			c.setBC(c.bc() - 1)
			c.Cycles += 7
			if !repeat || c.bc() == 0 {
				break
			}
		}
		c.refSetFlag(FlagPV, c.bc() != 0)
		c.refSetFlag(FlagH, false)
		c.refSetFlag(FlagN, false)
		return nil
	}
	// SBC HL,rp (01pp0010) / ADC HL,rp (01pp1010) /
	// LD (nn),rp (01pp0011) / LD rp,(nn) (01pp1011)
	if op&0xCF == 0x42 || op&0xCF == 0x4A {
		p := int(op >> 4 & 3)
		hl := c.hl()
		v := c.refGetRP(p, nil)
		carry := uint32(0)
		if c.refFlag(FlagC) {
			carry = 1
		}
		if op&0x08 == 0 { // SBC
			r := uint32(hl) - uint32(v) - carry
			res := uint16(r)
			c.refSetFlag(FlagC, r > 0xffff)
			c.refSetFlag(FlagN, true)
			c.refSetFlag(FlagZ, res == 0)
			c.refSetFlag(FlagS, res&0x8000 != 0)
			c.refSetFlag(FlagPV, (hl^v)&(hl^res)&0x8000 != 0)
			c.refSetFlag(FlagH, hl&0x0fff < v&0x0fff+uint16(carry))
			c.setHL(res)
		} else { // ADC
			r := uint32(hl) + uint32(v) + carry
			res := uint16(r)
			c.refSetFlag(FlagC, r > 0xffff)
			c.refSetFlag(FlagN, false)
			c.refSetFlag(FlagZ, res == 0)
			c.refSetFlag(FlagS, res&0x8000 != 0)
			c.refSetFlag(FlagPV, (hl^res)&(v^res)&0x8000 != 0)
			c.refSetFlag(FlagH, hl&0x0fff+v&0x0fff+uint16(carry) > 0x0fff)
			c.setHL(res)
		}
		c.Cycles += 4
		return nil
	}
	if op&0xCF == 0x43 { // LD (nn),rp
		addr := c.refFetch16()
		c.refWrite16(addr, c.refGetRP(int(op>>4&3), nil))
		c.Cycles += 13
		return nil
	}
	if op&0xCF == 0x4B { // LD rp,(nn)
		addr := c.refFetch16()
		c.refSetRP(int(op>>4&3), nil, c.refRead16(addr))
		c.Cycles += 11
		return nil
	}
	return fmt.Errorf("%w: ED %02x at PC=%04x", ErrIllegalOpcode, op, c.PC-2)
}

// MappedPages returns the physical base of each 4 KB logical page
// under the current MMU registers.
func MappedPages(c *CPU) (pages [16]uint32) {
	for p := range pages {
		pages[p] = refPhysical(c.Mem, uint16(p<<12))
	}
	return pages
}

// cpuState is everything DiffState compares outside memory.
type cpuState struct {
	A, F, B, C, D, E, H, L, A2, F2, B2, C2, D2, E2, H2, L2 uint8
	IX, IY, SP, PC                                         uint16
	IFF, Halted, IntPending, IOPrefix                      bool
	Cycles, Instructions, IgnoredWrites                    uint64
	MMU                                                    [4]uint8
}

func stateOf(c *CPU) cpuState {
	return cpuState{c.A, c.F, c.B, c.C, c.D, c.E, c.H, c.L, c.A2, c.F2, c.B2, c.C2, c.D2, c.E2, c.H2, c.L2,
		c.IX, c.IY, c.SP, c.PC, c.IFF, c.Halted, c.intPending, c.ioPrefix,
		c.Cycles, c.Instructions, c.Mem.IgnoredWrites, c.Mem.mmu}
}

// DiffState describes the difference between two CPUs' state, or
// returns "" when they match: every register, the interrupt and halt
// state, the counters, the MMU registers, the flash write count, and
// the physical pages listed.
func DiffState(a, b *CPU, pages ...[16]uint32) string {
	if sa, sb := stateOf(a), stateOf(b); sa != sb {
		return fmt.Sprintf("state\n%+v\nvs\n%+v", sa, sb)
	}
	for _, set := range pages {
		for _, base := range set {
			pa, pb := a.Mem.Phys[base:base+0x1000], b.Mem.Phys[base:base+0x1000]
			if string(pa) == string(pb) {
				continue
			}
			for i := range pa {
				if pa[i] != pb[i] {
					return fmt.Sprintf("memory at %05x: %02x vs %02x", base+uint32(i), pa[i], pb[i])
				}
			}
		}
	}
	return ""
}
