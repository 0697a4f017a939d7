package rabbit

import "fmt"

// The decoder: one flat dispatch per opcode page. Each page is a
// switch over the whole opcode byte, which the compiler turns into a
// jump table, and each case has its register operands written out, so
// an instruction costs one indexed jump and no operand re-decode. The
// dispatch is fixed at compile time and shared by every CPU; nothing is
// cached per address, so code may be rewritten in Mem.Phys at any time.
//
// Cycle counts approximate the Rabbit 2000 user's manual; register
// operations are cheap (2 clocks), memory operands cost ~5–7,
// call/ret/push/pop ~8–12, prefixed index forms add ~4. Each case
// charges its cycles at the same point relative to its operand access
// as the original nested decoder (refcpu_test.go) did, because under
// the IOI prefix that access is an I/O bus cycle, and devices on the
// bus read CPU.Cycles.

// exec executes one primary-page opcode.
func (c *CPU) exec(op uint8) error {
	switch op {
	case 0x00: // NOP
		c.Cycles += 2
	case 0x01: // LD BC,nn
		c.setBC(c.fetch16())
		c.Cycles += 6
	case 0x02: // LD (BC),A
		c.memWrite8(c.bc(), c.A)
		c.Cycles += 6
	case 0x03: // INC BC
		c.setBC(c.bc() + 1)
		c.Cycles += 2
	case 0x04: // INC B
		c.Cycles += 2
		c.B = c.inc8(c.B)
	case 0x05: // DEC B
		c.Cycles += 2
		c.B = c.dec8(c.B)
	case 0x06: // LD B,n
		c.B = c.fetch8()
		c.Cycles += 4
	case 0x07: // RLCA
		c.rotA(c.A<<1|c.A>>7, c.A>>7)
	case 0x08: // EX AF,AF'
		c.A, c.A2 = c.A2, c.A
		c.F, c.F2 = c.F2, c.F
		c.Cycles += 2
	case 0x09: // ADD HL,BC
		c.setHL(c.addHL(c.hl(), c.bc()))
		c.Cycles += 2
	case 0x0A: // LD A,(BC)
		c.A = c.memRead8(c.bc())
		c.Cycles += 6
	case 0x0B: // DEC BC
		c.setBC(c.bc() - 1)
		c.Cycles += 2
	case 0x0C: // INC C
		c.Cycles += 2
		c.C = c.inc8(c.C)
	case 0x0D: // DEC C
		c.Cycles += 2
		c.C = c.dec8(c.C)
	case 0x0E: // LD C,n
		c.C = c.fetch8()
		c.Cycles += 4
	case 0x0F: // RRCA
		c.rotA(c.A>>1|c.A<<7, c.A&1)
	case 0x10: // DJNZ d
		c.B--
		c.jr(c.B != 0)
	case 0x11: // LD DE,nn
		c.setDE(c.fetch16())
		c.Cycles += 6
	case 0x12: // LD (DE),A
		c.memWrite8(c.de(), c.A)
		c.Cycles += 6
	case 0x13: // INC DE
		c.setDE(c.de() + 1)
		c.Cycles += 2
	case 0x14: // INC D
		c.Cycles += 2
		c.D = c.inc8(c.D)
	case 0x15: // DEC D
		c.Cycles += 2
		c.D = c.dec8(c.D)
	case 0x16: // LD D,n
		c.D = c.fetch8()
		c.Cycles += 4
	case 0x17: // RLA
		c.rotA(c.A<<1|c.F&FlagC, c.A>>7)
	case 0x18: // JR d
		e := int8(c.fetch8())
		c.PC += uint16(e)
		c.Cycles += 5
	case 0x19: // ADD HL,DE
		c.setHL(c.addHL(c.hl(), c.de()))
		c.Cycles += 2
	case 0x1A: // LD A,(DE)
		c.A = c.memRead8(c.de())
		c.Cycles += 6
	case 0x1B: // DEC DE
		c.setDE(c.de() - 1)
		c.Cycles += 2
	case 0x1C: // INC E
		c.Cycles += 2
		c.E = c.inc8(c.E)
	case 0x1D: // DEC E
		c.Cycles += 2
		c.E = c.dec8(c.E)
	case 0x1E: // LD E,n
		c.E = c.fetch8()
		c.Cycles += 4
	case 0x1F: // RRA
		c.rotA(c.A>>1|c.F<<7, c.A&1)
	case 0x20: // JR NZ,d
		c.jr(c.F&FlagZ == 0)
	case 0x21: // LD HL,nn
		c.setHL(c.fetch16())
		c.Cycles += 6
	case 0x22: // LD (nn),HL
		c.store16(c.fetch16(), c.hl())
		c.Cycles += 11
	case 0x23: // INC HL
		c.setHL(c.hl() + 1)
		c.Cycles += 2
	case 0x24: // INC H
		c.Cycles += 2
		c.H = c.inc8(c.H)
	case 0x25: // DEC H
		c.Cycles += 2
		c.H = c.dec8(c.H)
	case 0x26: // LD H,n
		c.H = c.fetch8()
		c.Cycles += 4
	case 0x27: // DAA
		c.daa()
		c.Cycles += 2
	case 0x28: // JR Z,d
		c.jr(c.F&FlagZ != 0)
	case 0x29: // ADD HL,HL
		c.setHL(c.addHL(c.hl(), c.hl()))
		c.Cycles += 2
	case 0x2A: // LD HL,(nn)
		c.setHL(c.load16(c.fetch16()))
		c.Cycles += 9
	case 0x2B: // DEC HL
		c.setHL(c.hl() - 1)
		c.Cycles += 2
	case 0x2C: // INC L
		c.Cycles += 2
		c.L = c.inc8(c.L)
	case 0x2D: // DEC L
		c.Cycles += 2
		c.L = c.dec8(c.L)
	case 0x2E: // LD L,n
		c.L = c.fetch8()
		c.Cycles += 4
	case 0x2F: // CPL
		c.A = ^c.A
		c.F |= FlagH | FlagN
		c.Cycles += 2
	case 0x30: // JR NC,d
		c.jr(c.F&FlagC == 0)
	case 0x31: // LD SP,nn
		c.SP = c.fetch16()
		c.Cycles += 6
	case 0x32: // LD (nn),A
		c.memWrite8(c.fetch16(), c.A)
		c.Cycles += 8
	case 0x33: // INC SP
		c.SP++
		c.Cycles += 2
	case 0x34: // INC (HL)
		c.Cycles += 8
		c.writeHL(c.inc8(c.readHL()))
	case 0x35: // DEC (HL)
		c.Cycles += 8
		c.writeHL(c.dec8(c.readHL()))
	case 0x36: // LD (HL),n
		c.writeHL(c.fetch8())
		c.Cycles += 7
	case 0x37: // SCF
		c.F = c.F&^(FlagH|FlagN) | FlagC
		c.Cycles += 2
	case 0x38: // JR C,d
		c.jr(c.F&FlagC != 0)
	case 0x39: // ADD HL,SP
		c.setHL(c.addHL(c.hl(), c.SP))
		c.Cycles += 2
	case 0x3A: // LD A,(nn)
		c.A = c.memRead8(c.fetch16())
		c.Cycles += 6
	case 0x3B: // DEC SP
		c.SP--
		c.Cycles += 2
	case 0x3C: // INC A
		c.Cycles += 2
		c.A = c.inc8(c.A)
	case 0x3D: // DEC A
		c.Cycles += 2
		c.A = c.dec8(c.A)
	case 0x3E: // LD A,n
		c.A = c.fetch8()
		c.Cycles += 4
	case 0x3F: // CCF
		c.F = c.F&^(FlagH|FlagN) ^ FlagC | (c.F&FlagC)<<4
		c.Cycles += 2
	case 0x40: // LD B,B
		c.Cycles += 2
	case 0x41: // LD B,C
		c.B = c.C
		c.Cycles += 2
	case 0x42: // LD B,D
		c.B = c.D
		c.Cycles += 2
	case 0x43: // LD B,E
		c.B = c.E
		c.Cycles += 2
	case 0x44: // LD B,H
		c.B = c.H
		c.Cycles += 2
	case 0x45: // LD B,L
		c.B = c.L
		c.Cycles += 2
	case 0x46: // LD B,(HL)
		c.Cycles += 5
		c.B = c.readHL()
	case 0x47: // LD B,A
		c.B = c.A
		c.Cycles += 2
	case 0x48: // LD C,B
		c.C = c.B
		c.Cycles += 2
	case 0x49: // LD C,C
		c.Cycles += 2
	case 0x4A: // LD C,D
		c.C = c.D
		c.Cycles += 2
	case 0x4B: // LD C,E
		c.C = c.E
		c.Cycles += 2
	case 0x4C: // LD C,H
		c.C = c.H
		c.Cycles += 2
	case 0x4D: // LD C,L
		c.C = c.L
		c.Cycles += 2
	case 0x4E: // LD C,(HL)
		c.Cycles += 5
		c.C = c.readHL()
	case 0x4F: // LD C,A
		c.C = c.A
		c.Cycles += 2
	case 0x50: // LD D,B
		c.D = c.B
		c.Cycles += 2
	case 0x51: // LD D,C
		c.D = c.C
		c.Cycles += 2
	case 0x52: // LD D,D
		c.Cycles += 2
	case 0x53: // LD D,E
		c.D = c.E
		c.Cycles += 2
	case 0x54: // LD D,H
		c.D = c.H
		c.Cycles += 2
	case 0x55: // LD D,L
		c.D = c.L
		c.Cycles += 2
	case 0x56: // LD D,(HL)
		c.Cycles += 5
		c.D = c.readHL()
	case 0x57: // LD D,A
		c.D = c.A
		c.Cycles += 2
	case 0x58: // LD E,B
		c.E = c.B
		c.Cycles += 2
	case 0x59: // LD E,C
		c.E = c.C
		c.Cycles += 2
	case 0x5A: // LD E,D
		c.E = c.D
		c.Cycles += 2
	case 0x5B: // LD E,E
		c.Cycles += 2
	case 0x5C: // LD E,H
		c.E = c.H
		c.Cycles += 2
	case 0x5D: // LD E,L
		c.E = c.L
		c.Cycles += 2
	case 0x5E: // LD E,(HL)
		c.Cycles += 5
		c.E = c.readHL()
	case 0x5F: // LD E,A
		c.E = c.A
		c.Cycles += 2
	case 0x60: // LD H,B
		c.H = c.B
		c.Cycles += 2
	case 0x61: // LD H,C
		c.H = c.C
		c.Cycles += 2
	case 0x62: // LD H,D
		c.H = c.D
		c.Cycles += 2
	case 0x63: // LD H,E
		c.H = c.E
		c.Cycles += 2
	case 0x64: // LD H,H
		c.Cycles += 2
	case 0x65: // LD H,L
		c.H = c.L
		c.Cycles += 2
	case 0x66: // LD H,(HL)
		c.Cycles += 5
		c.H = c.readHL()
	case 0x67: // LD H,A
		c.H = c.A
		c.Cycles += 2
	case 0x68: // LD L,B
		c.L = c.B
		c.Cycles += 2
	case 0x69: // LD L,C
		c.L = c.C
		c.Cycles += 2
	case 0x6A: // LD L,D
		c.L = c.D
		c.Cycles += 2
	case 0x6B: // LD L,E
		c.L = c.E
		c.Cycles += 2
	case 0x6C: // LD L,H
		c.L = c.H
		c.Cycles += 2
	case 0x6D: // LD L,L
		c.Cycles += 2
	case 0x6E: // LD L,(HL)
		c.Cycles += 5
		c.L = c.readHL()
	case 0x6F: // LD L,A
		c.L = c.A
		c.Cycles += 2
	case 0x70: // LD (HL),B
		c.Cycles += 5
		c.writeHL(c.B)
	case 0x71: // LD (HL),C
		c.Cycles += 5
		c.writeHL(c.C)
	case 0x72: // LD (HL),D
		c.Cycles += 5
		c.writeHL(c.D)
	case 0x73: // LD (HL),E
		c.Cycles += 5
		c.writeHL(c.E)
	case 0x74: // LD (HL),H
		c.Cycles += 5
		c.writeHL(c.H)
	case 0x75: // LD (HL),L
		c.Cycles += 5
		c.writeHL(c.L)
	case 0x76: // HALT
		c.Halted = true
		c.Cycles += 2
	case 0x77: // LD (HL),A
		c.Cycles += 5
		c.writeHL(c.A)
	case 0x78: // LD A,B
		c.A = c.B
		c.Cycles += 2
	case 0x79: // LD A,C
		c.A = c.C
		c.Cycles += 2
	case 0x7A: // LD A,D
		c.A = c.D
		c.Cycles += 2
	case 0x7B: // LD A,E
		c.A = c.E
		c.Cycles += 2
	case 0x7C: // LD A,H
		c.A = c.H
		c.Cycles += 2
	case 0x7D: // LD A,L
		c.A = c.L
		c.Cycles += 2
	case 0x7E: // LD A,(HL)
		c.Cycles += 5
		c.A = c.readHL()
	case 0x7F: // LD A,A
		c.Cycles += 2
	case 0x80: // ADD A,B
		c.Cycles += 2
		c.add8(c.B, 0)
	case 0x81: // ADD A,C
		c.Cycles += 2
		c.add8(c.C, 0)
	case 0x82: // ADD A,D
		c.Cycles += 2
		c.add8(c.D, 0)
	case 0x83: // ADD A,E
		c.Cycles += 2
		c.add8(c.E, 0)
	case 0x84: // ADD A,H
		c.Cycles += 2
		c.add8(c.H, 0)
	case 0x85: // ADD A,L
		c.Cycles += 2
		c.add8(c.L, 0)
	case 0x86: // ADD A,(HL)
		c.Cycles += 5
		c.add8(c.readHL(), 0)
	case 0x87: // ADD A,A
		c.Cycles += 2
		c.add8(c.A, 0)
	case 0x88: // ADC A,B
		c.Cycles += 2
		c.add8(c.B, c.F&FlagC)
	case 0x89: // ADC A,C
		c.Cycles += 2
		c.add8(c.C, c.F&FlagC)
	case 0x8A: // ADC A,D
		c.Cycles += 2
		c.add8(c.D, c.F&FlagC)
	case 0x8B: // ADC A,E
		c.Cycles += 2
		c.add8(c.E, c.F&FlagC)
	case 0x8C: // ADC A,H
		c.Cycles += 2
		c.add8(c.H, c.F&FlagC)
	case 0x8D: // ADC A,L
		c.Cycles += 2
		c.add8(c.L, c.F&FlagC)
	case 0x8E: // ADC A,(HL)
		c.Cycles += 5
		c.add8(c.readHL(), c.F&FlagC)
	case 0x8F: // ADC A,A
		c.Cycles += 2
		c.add8(c.A, c.F&FlagC)
	case 0x90: // SUB B
		c.Cycles += 2
		c.A = c.sub8(c.B, 0)
	case 0x91: // SUB C
		c.Cycles += 2
		c.A = c.sub8(c.C, 0)
	case 0x92: // SUB D
		c.Cycles += 2
		c.A = c.sub8(c.D, 0)
	case 0x93: // SUB E
		c.Cycles += 2
		c.A = c.sub8(c.E, 0)
	case 0x94: // SUB H
		c.Cycles += 2
		c.A = c.sub8(c.H, 0)
	case 0x95: // SUB L
		c.Cycles += 2
		c.A = c.sub8(c.L, 0)
	case 0x96: // SUB (HL)
		c.Cycles += 5
		c.A = c.sub8(c.readHL(), 0)
	case 0x97: // SUB A
		c.Cycles += 2
		c.A = c.sub8(c.A, 0)
	case 0x98: // SBC A,B
		c.Cycles += 2
		c.A = c.sub8(c.B, c.F&FlagC)
	case 0x99: // SBC A,C
		c.Cycles += 2
		c.A = c.sub8(c.C, c.F&FlagC)
	case 0x9A: // SBC A,D
		c.Cycles += 2
		c.A = c.sub8(c.D, c.F&FlagC)
	case 0x9B: // SBC A,E
		c.Cycles += 2
		c.A = c.sub8(c.E, c.F&FlagC)
	case 0x9C: // SBC A,H
		c.Cycles += 2
		c.A = c.sub8(c.H, c.F&FlagC)
	case 0x9D: // SBC A,L
		c.Cycles += 2
		c.A = c.sub8(c.L, c.F&FlagC)
	case 0x9E: // SBC A,(HL)
		c.Cycles += 5
		c.A = c.sub8(c.readHL(), c.F&FlagC)
	case 0x9F: // SBC A,A
		c.Cycles += 2
		c.A = c.sub8(c.A, c.F&FlagC)
	case 0xA0: // AND B
		c.Cycles += 2
		c.and8(c.B)
	case 0xA1: // AND C
		c.Cycles += 2
		c.and8(c.C)
	case 0xA2: // AND D
		c.Cycles += 2
		c.and8(c.D)
	case 0xA3: // AND E
		c.Cycles += 2
		c.and8(c.E)
	case 0xA4: // AND H
		c.Cycles += 2
		c.and8(c.H)
	case 0xA5: // AND L
		c.Cycles += 2
		c.and8(c.L)
	case 0xA6: // AND (HL)
		c.Cycles += 5
		c.and8(c.readHL())
	case 0xA7: // AND A
		c.Cycles += 2
		c.and8(c.A)
	case 0xA8: // XOR B
		c.Cycles += 2
		c.xor8(c.B)
	case 0xA9: // XOR C
		c.Cycles += 2
		c.xor8(c.C)
	case 0xAA: // XOR D
		c.Cycles += 2
		c.xor8(c.D)
	case 0xAB: // XOR E
		c.Cycles += 2
		c.xor8(c.E)
	case 0xAC: // XOR H
		c.Cycles += 2
		c.xor8(c.H)
	case 0xAD: // XOR L
		c.Cycles += 2
		c.xor8(c.L)
	case 0xAE: // XOR (HL)
		c.Cycles += 5
		c.xor8(c.readHL())
	case 0xAF: // XOR A
		c.Cycles += 2
		c.xor8(c.A)
	case 0xB0: // OR B
		c.Cycles += 2
		c.or8(c.B)
	case 0xB1: // OR C
		c.Cycles += 2
		c.or8(c.C)
	case 0xB2: // OR D
		c.Cycles += 2
		c.or8(c.D)
	case 0xB3: // OR E
		c.Cycles += 2
		c.or8(c.E)
	case 0xB4: // OR H
		c.Cycles += 2
		c.or8(c.H)
	case 0xB5: // OR L
		c.Cycles += 2
		c.or8(c.L)
	case 0xB6: // OR (HL)
		c.Cycles += 5
		c.or8(c.readHL())
	case 0xB7: // OR A
		c.Cycles += 2
		c.or8(c.A)
	case 0xB8: // CP B
		c.Cycles += 2
		c.sub8(c.B, 0)
	case 0xB9: // CP C
		c.Cycles += 2
		c.sub8(c.C, 0)
	case 0xBA: // CP D
		c.Cycles += 2
		c.sub8(c.D, 0)
	case 0xBB: // CP E
		c.Cycles += 2
		c.sub8(c.E, 0)
	case 0xBC: // CP H
		c.Cycles += 2
		c.sub8(c.H, 0)
	case 0xBD: // CP L
		c.Cycles += 2
		c.sub8(c.L, 0)
	case 0xBE: // CP (HL)
		c.Cycles += 5
		c.sub8(c.readHL(), 0)
	case 0xBF: // CP A
		c.Cycles += 2
		c.sub8(c.A, 0)
	case 0xC0: // RET NZ
		c.retIf(c.F&FlagZ == 0)
	case 0xC1: // POP BC
		c.setBC(c.pop16())
		c.Cycles += 7
	case 0xC2: // JP NZ,nn
		c.jpIf(c.F&FlagZ == 0)
	case 0xC3: // JP nn
		c.PC = c.fetch16()
		c.Cycles += 7
	case 0xC4: // CALL NZ,nn
		c.callIf(c.F&FlagZ == 0)
	case 0xC5: // PUSH BC
		c.push16(c.bc())
		c.Cycles += 10
	case 0xC6: // ADD A,n
		c.add8(c.fetch8(), 0)
		c.Cycles += 4
	case 0xC7: // RST 00h
		c.rst(0x00)
	case 0xC8: // RET Z
		c.retIf(c.F&FlagZ != 0)
	case 0xC9: // RET
		c.retIf(true)
	case 0xCA: // JP Z,nn
		c.jpIf(c.F&FlagZ != 0)
	case 0xCB: // CB prefix
		return c.execCB()
	case 0xCC: // CALL Z,nn
		c.callIf(c.F&FlagZ != 0)
	case 0xCD: // CALL nn
		c.callIf(true)
	case 0xCE: // ADC A,n
		c.add8(c.fetch8(), c.F&FlagC)
		c.Cycles += 4
	case 0xCF: // RST 08h
		c.rst(0x08)
	case 0xD0: // RET NC
		c.retIf(c.F&FlagC == 0)
	case 0xD1: // POP DE
		c.setDE(c.pop16())
		c.Cycles += 7
	case 0xD2: // JP NC,nn
		c.jpIf(c.F&FlagC == 0)
	case 0xD3: // IOI prefix (Rabbit; Z80 used this for OUT (n),A)
		// The next instruction's memory operands address internal I/O.
		c.ioPrefix = true
		c.Cycles += 2
		op2 := c.fetch8()
		c.Instructions++
		err := c.exec(op2)
		c.ioPrefix = false
		return err
	case 0xD4: // CALL NC,nn
		c.callIf(c.F&FlagC == 0)
	case 0xD5: // PUSH DE
		c.push16(c.de())
		c.Cycles += 10
	case 0xD6: // SUB n
		c.A = c.sub8(c.fetch8(), 0)
		c.Cycles += 4
	case 0xD7: // RST 10h
		c.rst(0x10)
	case 0xD8: // RET C
		c.retIf(c.F&FlagC != 0)
	case 0xD9: // EXX
		c.B, c.C, c.B2, c.C2 = c.B2, c.C2, c.B, c.C
		c.D, c.E, c.D2, c.E2 = c.D2, c.E2, c.D, c.E
		c.H, c.L, c.H2, c.L2 = c.H2, c.L2, c.H, c.L
		c.Cycles += 2
	case 0xDA: // JP C,nn
		c.jpIf(c.F&FlagC != 0)
	case 0xDB: // unsupported (Z80 IN A,(n); Rabbit IOE prefix)
		return fmt.Errorf("%w: %02x (IOE prefix not modeled)", ErrIllegalOpcode, op)
	case 0xDC: // CALL C,nn
		c.callIf(c.F&FlagC != 0)
	case 0xDD: // DD prefix
		return c.execIndexed(&c.IX)
	case 0xDE: // SBC A,n
		c.A = c.sub8(c.fetch8(), c.F&FlagC)
		c.Cycles += 4
	case 0xDF: // RST 18h
		c.rst(0x18)
	case 0xE0: // RET PO
		c.retIf(c.F&FlagPV == 0)
	case 0xE1: // POP HL
		c.setHL(c.pop16())
		c.Cycles += 7
	case 0xE2: // JP PO,nn
		c.jpIf(c.F&FlagPV == 0)
	case 0xE3: // EX (SP),HL
		v := c.Mem.Read16(c.SP)
		c.Mem.Write16(c.SP, c.hl())
		c.setHL(v)
		c.Cycles += 15
	case 0xE4: // CALL PO,nn
		c.callIf(c.F&FlagPV == 0)
	case 0xE5: // PUSH HL
		c.push16(c.hl())
		c.Cycles += 10
	case 0xE6: // AND n
		c.and8(c.fetch8())
		c.Cycles += 4
	case 0xE7: // RST 20h
		c.rst(0x20)
	case 0xE8: // RET PE
		c.retIf(c.F&FlagPV != 0)
	case 0xE9: // JP (HL)
		c.PC = c.hl()
		c.Cycles += 4
	case 0xEA: // JP PE,nn
		c.jpIf(c.F&FlagPV != 0)
	case 0xEB: // EX DE,HL
		c.D, c.E, c.H, c.L = c.H, c.L, c.D, c.E
		c.Cycles += 2
	case 0xEC: // CALL PE,nn
		c.callIf(c.F&FlagPV != 0)
	case 0xED: // ED prefix
		return c.execED()
	case 0xEE: // XOR n
		c.xor8(c.fetch8())
		c.Cycles += 4
	case 0xEF: // RST 28h
		c.rst(0x28)
	case 0xF0: // RET P
		c.retIf(c.F&FlagS == 0)
	case 0xF1: // POP AF
		c.setAF(c.pop16())
		c.Cycles += 7
	case 0xF2: // JP P,nn
		c.jpIf(c.F&FlagS == 0)
	case 0xF3: // DI
		c.IFF = false
		c.Cycles += 4
	case 0xF4: // CALL P,nn
		c.callIf(c.F&FlagS == 0)
	case 0xF5: // PUSH AF
		c.push16(c.af())
		c.Cycles += 10
	case 0xF6: // OR n
		c.or8(c.fetch8())
		c.Cycles += 4
	case 0xF7: // RST 30h
		c.rst(0x30)
	case 0xF8: // RET M
		c.retIf(c.F&FlagS != 0)
	case 0xF9: // LD SP,HL
		c.SP = c.hl()
		c.Cycles += 2
	case 0xFA: // JP M,nn
		c.jpIf(c.F&FlagS != 0)
	case 0xFB: // EI
		c.IFF = true
		c.Cycles += 4
	case 0xFC: // CALL M,nn
		c.callIf(c.F&FlagS != 0)
	case 0xFD: // FD prefix
		return c.execIndexed(&c.IY)
	case 0xFE: // CP n
		c.sub8(c.fetch8(), 0)
		c.Cycles += 4
	case 0xFF: // RST 38h
		c.rst(0x38)
	}
	return nil
}

// execIndexed executes the opcode after a DD (IX) or FD (IY) prefix.
// HL becomes the index register and (HL) becomes (IX+d), at 4 extra
// clocks where the original decoder charged them; H and L stay H and
// L. Every opcode that neither names HL nor carries the extra clocks
// runs exactly as unprefixed.
func (c *CPU) execIndexed(ix *uint16) error {
	op := c.fetch8()
	switch op {
	case 0x01: // LD BC,nn
		c.setBC(c.fetch16())
		c.Cycles += 10
	case 0x03: // INC BC
		c.setBC(c.bc() + 1)
		c.Cycles += 6
	case 0x09: // ADD IX,BC
		*ix = c.addHL(*ix, c.bc())
		c.Cycles += 6
	case 0x0B: // DEC BC
		c.setBC(c.bc() - 1)
		c.Cycles += 6
	case 0x11: // LD DE,nn
		c.setDE(c.fetch16())
		c.Cycles += 10
	case 0x13: // INC DE
		c.setDE(c.de() + 1)
		c.Cycles += 6
	case 0x19: // ADD IX,DE
		*ix = c.addHL(*ix, c.de())
		c.Cycles += 6
	case 0x1B: // DEC DE
		c.setDE(c.de() - 1)
		c.Cycles += 6
	case 0x21: // LD IX,nn
		*ix = c.fetch16()
		c.Cycles += 10
	case 0x22: // LD (nn),IX
		c.store16(c.fetch16(), *ix)
		c.Cycles += 15
	case 0x23: // INC IX
		*ix++
		c.Cycles += 6
	case 0x29: // ADD IX,IX
		*ix = c.addHL(*ix, *ix)
		c.Cycles += 6
	case 0x2A: // LD IX,(nn)
		*ix = c.load16(c.fetch16())
		c.Cycles += 13
	case 0x2B: // DEC IX
		*ix--
		c.Cycles += 6
	case 0x31: // LD SP,nn
		c.SP = c.fetch16()
		c.Cycles += 10
	case 0x33: // INC SP
		c.SP++
		c.Cycles += 6
	case 0x34: // INC (IX+d)
		addr := c.ixd(ix)
		c.Cycles += 12
		c.memWrite8(addr, c.inc8(c.memRead8(addr)))
	case 0x35: // DEC (IX+d)
		addr := c.ixd(ix)
		c.Cycles += 12
		c.memWrite8(addr, c.dec8(c.memRead8(addr)))
	case 0x36: // LD (IX+d),n
		addr := c.ixd(ix)
		c.memWrite8(addr, c.fetch8())
		c.Cycles += 11
	case 0x39: // ADD IX,SP
		*ix = c.addHL(*ix, c.SP)
		c.Cycles += 6
	case 0x3B: // DEC SP
		c.SP--
		c.Cycles += 6
	case 0x46: // LD B,(IX+d)
		c.Cycles += 9
		c.B = c.memRead8(c.ixd(ix))
	case 0x4E: // LD C,(IX+d)
		c.Cycles += 9
		c.C = c.memRead8(c.ixd(ix))
	case 0x56: // LD D,(IX+d)
		c.Cycles += 9
		c.D = c.memRead8(c.ixd(ix))
	case 0x5E: // LD E,(IX+d)
		c.Cycles += 9
		c.E = c.memRead8(c.ixd(ix))
	case 0x66: // LD H,(IX+d)
		c.Cycles += 9
		c.H = c.memRead8(c.ixd(ix))
	case 0x6E: // LD L,(IX+d)
		c.Cycles += 9
		c.L = c.memRead8(c.ixd(ix))
	case 0x70: // LD (IX+d),B
		c.Cycles += 9
		c.memWrite8(c.ixd(ix), c.B)
	case 0x71: // LD (IX+d),C
		c.Cycles += 9
		c.memWrite8(c.ixd(ix), c.C)
	case 0x72: // LD (IX+d),D
		c.Cycles += 9
		c.memWrite8(c.ixd(ix), c.D)
	case 0x73: // LD (IX+d),E
		c.Cycles += 9
		c.memWrite8(c.ixd(ix), c.E)
	case 0x74: // LD (IX+d),H
		c.Cycles += 9
		c.memWrite8(c.ixd(ix), c.H)
	case 0x75: // LD (IX+d),L
		c.Cycles += 9
		c.memWrite8(c.ixd(ix), c.L)
	case 0x77: // LD (IX+d),A
		c.Cycles += 9
		c.memWrite8(c.ixd(ix), c.A)
	case 0x7E: // LD A,(IX+d)
		c.Cycles += 9
		c.A = c.memRead8(c.ixd(ix))
	case 0x86: // ADD A,(IX+d)
		c.Cycles += 9
		c.add8(c.memRead8(c.ixd(ix)), 0)
	case 0x8E: // ADC A,(IX+d)
		c.Cycles += 9
		c.add8(c.memRead8(c.ixd(ix)), c.F&FlagC)
	case 0x96: // SUB (IX+d)
		c.Cycles += 9
		c.A = c.sub8(c.memRead8(c.ixd(ix)), 0)
	case 0x9E: // SBC A,(IX+d)
		c.Cycles += 9
		c.A = c.sub8(c.memRead8(c.ixd(ix)), c.F&FlagC)
	case 0xA6: // AND (IX+d)
		c.Cycles += 9
		c.and8(c.memRead8(c.ixd(ix)))
	case 0xAE: // XOR (IX+d)
		c.Cycles += 9
		c.xor8(c.memRead8(c.ixd(ix)))
	case 0xB6: // OR (IX+d)
		c.Cycles += 9
		c.or8(c.memRead8(c.ixd(ix)))
	case 0xBE: // CP (IX+d)
		c.Cycles += 9
		c.sub8(c.memRead8(c.ixd(ix)), 0)
	case 0xC1: // POP BC
		c.setBC(c.pop16())
		c.Cycles += 11
	case 0xC5: // PUSH BC
		c.push16(c.bc())
		c.Cycles += 14
	case 0xCB: // DD CB d op: bit operations on (IX+d)
		return c.execDDCB(ix)
	case 0xD1: // POP DE
		c.setDE(c.pop16())
		c.Cycles += 11
	case 0xD5: // PUSH DE
		c.push16(c.de())
		c.Cycles += 14
	case 0xDD: // a later prefix replaces this one
		return c.execIndexed(&c.IX)
	case 0xE1: // POP IX
		*ix = c.pop16()
		c.Cycles += 11
	case 0xE3: // EX (SP),IX
		v := c.Mem.Read16(c.SP)
		c.Mem.Write16(c.SP, *ix)
		*ix = v
		c.Cycles += 19
	case 0xE5: // PUSH IX
		c.push16(*ix)
		c.Cycles += 14
	case 0xE9: // JP (IX)
		c.PC = *ix
		c.Cycles += 4
	case 0xED: // ED page; the index prefix has no effect
		return c.execED()
	case 0xF1: // POP AF
		c.setAF(c.pop16())
		c.Cycles += 11
	case 0xF5: // PUSH AF
		c.push16(c.af())
		c.Cycles += 14
	case 0xF9: // LD SP,IX
		c.SP = *ix
		c.Cycles += 2
	case 0xFD: // a later prefix replaces this one
		return c.execIndexed(&c.IY)

	default:
		return c.exec(op)
	}
	return nil
}

// execCB executes the CB page: rotates, shifts, and bit operations.
func (c *CPU) execCB() error {
	op := c.fetch8()
	if op&7 == 6 { // (HL) operand
		c.Cycles += 10
	} else {
		c.Cycles += 4
	}
	switch op {
	case 0x00: // RLC B
		c.B = c.rlc(c.B)
	case 0x01: // RLC C
		c.C = c.rlc(c.C)
	case 0x02: // RLC D
		c.D = c.rlc(c.D)
	case 0x03: // RLC E
		c.E = c.rlc(c.E)
	case 0x04: // RLC H
		c.H = c.rlc(c.H)
	case 0x05: // RLC L
		c.L = c.rlc(c.L)
	case 0x06: // RLC (HL)
		c.writeHL(c.rlc(c.readHL()))
	case 0x07: // RLC A
		c.A = c.rlc(c.A)
	case 0x08: // RRC B
		c.B = c.rrc(c.B)
	case 0x09: // RRC C
		c.C = c.rrc(c.C)
	case 0x0A: // RRC D
		c.D = c.rrc(c.D)
	case 0x0B: // RRC E
		c.E = c.rrc(c.E)
	case 0x0C: // RRC H
		c.H = c.rrc(c.H)
	case 0x0D: // RRC L
		c.L = c.rrc(c.L)
	case 0x0E: // RRC (HL)
		c.writeHL(c.rrc(c.readHL()))
	case 0x0F: // RRC A
		c.A = c.rrc(c.A)
	case 0x10: // RL B
		c.B = c.rl(c.B)
	case 0x11: // RL C
		c.C = c.rl(c.C)
	case 0x12: // RL D
		c.D = c.rl(c.D)
	case 0x13: // RL E
		c.E = c.rl(c.E)
	case 0x14: // RL H
		c.H = c.rl(c.H)
	case 0x15: // RL L
		c.L = c.rl(c.L)
	case 0x16: // RL (HL)
		c.writeHL(c.rl(c.readHL()))
	case 0x17: // RL A
		c.A = c.rl(c.A)
	case 0x18: // RR B
		c.B = c.rr(c.B)
	case 0x19: // RR C
		c.C = c.rr(c.C)
	case 0x1A: // RR D
		c.D = c.rr(c.D)
	case 0x1B: // RR E
		c.E = c.rr(c.E)
	case 0x1C: // RR H
		c.H = c.rr(c.H)
	case 0x1D: // RR L
		c.L = c.rr(c.L)
	case 0x1E: // RR (HL)
		c.writeHL(c.rr(c.readHL()))
	case 0x1F: // RR A
		c.A = c.rr(c.A)
	case 0x20: // SLA B
		c.B = c.sla(c.B)
	case 0x21: // SLA C
		c.C = c.sla(c.C)
	case 0x22: // SLA D
		c.D = c.sla(c.D)
	case 0x23: // SLA E
		c.E = c.sla(c.E)
	case 0x24: // SLA H
		c.H = c.sla(c.H)
	case 0x25: // SLA L
		c.L = c.sla(c.L)
	case 0x26: // SLA (HL)
		c.writeHL(c.sla(c.readHL()))
	case 0x27: // SLA A
		c.A = c.sla(c.A)
	case 0x28: // SRA B
		c.B = c.sra(c.B)
	case 0x29: // SRA C
		c.C = c.sra(c.C)
	case 0x2A: // SRA D
		c.D = c.sra(c.D)
	case 0x2B: // SRA E
		c.E = c.sra(c.E)
	case 0x2C: // SRA H
		c.H = c.sra(c.H)
	case 0x2D: // SRA L
		c.L = c.sra(c.L)
	case 0x2E: // SRA (HL)
		c.writeHL(c.sra(c.readHL()))
	case 0x2F: // SRA A
		c.A = c.sra(c.A)
	case 0x30: // SLL B
		c.B = c.sll(c.B)
	case 0x31: // SLL C
		c.C = c.sll(c.C)
	case 0x32: // SLL D
		c.D = c.sll(c.D)
	case 0x33: // SLL E
		c.E = c.sll(c.E)
	case 0x34: // SLL H
		c.H = c.sll(c.H)
	case 0x35: // SLL L
		c.L = c.sll(c.L)
	case 0x36: // SLL (HL)
		c.writeHL(c.sll(c.readHL()))
	case 0x37: // SLL A
		c.A = c.sll(c.A)
	case 0x38: // SRL B
		c.B = c.srl(c.B)
	case 0x39: // SRL C
		c.C = c.srl(c.C)
	case 0x3A: // SRL D
		c.D = c.srl(c.D)
	case 0x3B: // SRL E
		c.E = c.srl(c.E)
	case 0x3C: // SRL H
		c.H = c.srl(c.H)
	case 0x3D: // SRL L
		c.L = c.srl(c.L)
	case 0x3E: // SRL (HL)
		c.writeHL(c.srl(c.readHL()))
	case 0x3F: // SRL A
		c.A = c.srl(c.A)
	case 0x40: // BIT 0,B
		c.bit(0x01, c.B)
	case 0x41: // BIT 0,C
		c.bit(0x01, c.C)
	case 0x42: // BIT 0,D
		c.bit(0x01, c.D)
	case 0x43: // BIT 0,E
		c.bit(0x01, c.E)
	case 0x44: // BIT 0,H
		c.bit(0x01, c.H)
	case 0x45: // BIT 0,L
		c.bit(0x01, c.L)
	case 0x46: // BIT 0,(HL)
		c.bit(0x01, c.readHL())
	case 0x47: // BIT 0,A
		c.bit(0x01, c.A)
	case 0x48: // BIT 1,B
		c.bit(0x02, c.B)
	case 0x49: // BIT 1,C
		c.bit(0x02, c.C)
	case 0x4A: // BIT 1,D
		c.bit(0x02, c.D)
	case 0x4B: // BIT 1,E
		c.bit(0x02, c.E)
	case 0x4C: // BIT 1,H
		c.bit(0x02, c.H)
	case 0x4D: // BIT 1,L
		c.bit(0x02, c.L)
	case 0x4E: // BIT 1,(HL)
		c.bit(0x02, c.readHL())
	case 0x4F: // BIT 1,A
		c.bit(0x02, c.A)
	case 0x50: // BIT 2,B
		c.bit(0x04, c.B)
	case 0x51: // BIT 2,C
		c.bit(0x04, c.C)
	case 0x52: // BIT 2,D
		c.bit(0x04, c.D)
	case 0x53: // BIT 2,E
		c.bit(0x04, c.E)
	case 0x54: // BIT 2,H
		c.bit(0x04, c.H)
	case 0x55: // BIT 2,L
		c.bit(0x04, c.L)
	case 0x56: // BIT 2,(HL)
		c.bit(0x04, c.readHL())
	case 0x57: // BIT 2,A
		c.bit(0x04, c.A)
	case 0x58: // BIT 3,B
		c.bit(0x08, c.B)
	case 0x59: // BIT 3,C
		c.bit(0x08, c.C)
	case 0x5A: // BIT 3,D
		c.bit(0x08, c.D)
	case 0x5B: // BIT 3,E
		c.bit(0x08, c.E)
	case 0x5C: // BIT 3,H
		c.bit(0x08, c.H)
	case 0x5D: // BIT 3,L
		c.bit(0x08, c.L)
	case 0x5E: // BIT 3,(HL)
		c.bit(0x08, c.readHL())
	case 0x5F: // BIT 3,A
		c.bit(0x08, c.A)
	case 0x60: // BIT 4,B
		c.bit(0x10, c.B)
	case 0x61: // BIT 4,C
		c.bit(0x10, c.C)
	case 0x62: // BIT 4,D
		c.bit(0x10, c.D)
	case 0x63: // BIT 4,E
		c.bit(0x10, c.E)
	case 0x64: // BIT 4,H
		c.bit(0x10, c.H)
	case 0x65: // BIT 4,L
		c.bit(0x10, c.L)
	case 0x66: // BIT 4,(HL)
		c.bit(0x10, c.readHL())
	case 0x67: // BIT 4,A
		c.bit(0x10, c.A)
	case 0x68: // BIT 5,B
		c.bit(0x20, c.B)
	case 0x69: // BIT 5,C
		c.bit(0x20, c.C)
	case 0x6A: // BIT 5,D
		c.bit(0x20, c.D)
	case 0x6B: // BIT 5,E
		c.bit(0x20, c.E)
	case 0x6C: // BIT 5,H
		c.bit(0x20, c.H)
	case 0x6D: // BIT 5,L
		c.bit(0x20, c.L)
	case 0x6E: // BIT 5,(HL)
		c.bit(0x20, c.readHL())
	case 0x6F: // BIT 5,A
		c.bit(0x20, c.A)
	case 0x70: // BIT 6,B
		c.bit(0x40, c.B)
	case 0x71: // BIT 6,C
		c.bit(0x40, c.C)
	case 0x72: // BIT 6,D
		c.bit(0x40, c.D)
	case 0x73: // BIT 6,E
		c.bit(0x40, c.E)
	case 0x74: // BIT 6,H
		c.bit(0x40, c.H)
	case 0x75: // BIT 6,L
		c.bit(0x40, c.L)
	case 0x76: // BIT 6,(HL)
		c.bit(0x40, c.readHL())
	case 0x77: // BIT 6,A
		c.bit(0x40, c.A)
	case 0x78: // BIT 7,B
		c.bit(0x80, c.B)
	case 0x79: // BIT 7,C
		c.bit(0x80, c.C)
	case 0x7A: // BIT 7,D
		c.bit(0x80, c.D)
	case 0x7B: // BIT 7,E
		c.bit(0x80, c.E)
	case 0x7C: // BIT 7,H
		c.bit(0x80, c.H)
	case 0x7D: // BIT 7,L
		c.bit(0x80, c.L)
	case 0x7E: // BIT 7,(HL)
		c.bit(0x80, c.readHL())
	case 0x7F: // BIT 7,A
		c.bit(0x80, c.A)
	case 0x80: // RES 0,B
		c.B &^= 0x01
	case 0x81: // RES 0,C
		c.C &^= 0x01
	case 0x82: // RES 0,D
		c.D &^= 0x01
	case 0x83: // RES 0,E
		c.E &^= 0x01
	case 0x84: // RES 0,H
		c.H &^= 0x01
	case 0x85: // RES 0,L
		c.L &^= 0x01
	case 0x86: // RES 0,(HL)
		c.writeHL(c.readHL() &^ 0x01)
	case 0x87: // RES 0,A
		c.A &^= 0x01
	case 0x88: // RES 1,B
		c.B &^= 0x02
	case 0x89: // RES 1,C
		c.C &^= 0x02
	case 0x8A: // RES 1,D
		c.D &^= 0x02
	case 0x8B: // RES 1,E
		c.E &^= 0x02
	case 0x8C: // RES 1,H
		c.H &^= 0x02
	case 0x8D: // RES 1,L
		c.L &^= 0x02
	case 0x8E: // RES 1,(HL)
		c.writeHL(c.readHL() &^ 0x02)
	case 0x8F: // RES 1,A
		c.A &^= 0x02
	case 0x90: // RES 2,B
		c.B &^= 0x04
	case 0x91: // RES 2,C
		c.C &^= 0x04
	case 0x92: // RES 2,D
		c.D &^= 0x04
	case 0x93: // RES 2,E
		c.E &^= 0x04
	case 0x94: // RES 2,H
		c.H &^= 0x04
	case 0x95: // RES 2,L
		c.L &^= 0x04
	case 0x96: // RES 2,(HL)
		c.writeHL(c.readHL() &^ 0x04)
	case 0x97: // RES 2,A
		c.A &^= 0x04
	case 0x98: // RES 3,B
		c.B &^= 0x08
	case 0x99: // RES 3,C
		c.C &^= 0x08
	case 0x9A: // RES 3,D
		c.D &^= 0x08
	case 0x9B: // RES 3,E
		c.E &^= 0x08
	case 0x9C: // RES 3,H
		c.H &^= 0x08
	case 0x9D: // RES 3,L
		c.L &^= 0x08
	case 0x9E: // RES 3,(HL)
		c.writeHL(c.readHL() &^ 0x08)
	case 0x9F: // RES 3,A
		c.A &^= 0x08
	case 0xA0: // RES 4,B
		c.B &^= 0x10
	case 0xA1: // RES 4,C
		c.C &^= 0x10
	case 0xA2: // RES 4,D
		c.D &^= 0x10
	case 0xA3: // RES 4,E
		c.E &^= 0x10
	case 0xA4: // RES 4,H
		c.H &^= 0x10
	case 0xA5: // RES 4,L
		c.L &^= 0x10
	case 0xA6: // RES 4,(HL)
		c.writeHL(c.readHL() &^ 0x10)
	case 0xA7: // RES 4,A
		c.A &^= 0x10
	case 0xA8: // RES 5,B
		c.B &^= 0x20
	case 0xA9: // RES 5,C
		c.C &^= 0x20
	case 0xAA: // RES 5,D
		c.D &^= 0x20
	case 0xAB: // RES 5,E
		c.E &^= 0x20
	case 0xAC: // RES 5,H
		c.H &^= 0x20
	case 0xAD: // RES 5,L
		c.L &^= 0x20
	case 0xAE: // RES 5,(HL)
		c.writeHL(c.readHL() &^ 0x20)
	case 0xAF: // RES 5,A
		c.A &^= 0x20
	case 0xB0: // RES 6,B
		c.B &^= 0x40
	case 0xB1: // RES 6,C
		c.C &^= 0x40
	case 0xB2: // RES 6,D
		c.D &^= 0x40
	case 0xB3: // RES 6,E
		c.E &^= 0x40
	case 0xB4: // RES 6,H
		c.H &^= 0x40
	case 0xB5: // RES 6,L
		c.L &^= 0x40
	case 0xB6: // RES 6,(HL)
		c.writeHL(c.readHL() &^ 0x40)
	case 0xB7: // RES 6,A
		c.A &^= 0x40
	case 0xB8: // RES 7,B
		c.B &^= 0x80
	case 0xB9: // RES 7,C
		c.C &^= 0x80
	case 0xBA: // RES 7,D
		c.D &^= 0x80
	case 0xBB: // RES 7,E
		c.E &^= 0x80
	case 0xBC: // RES 7,H
		c.H &^= 0x80
	case 0xBD: // RES 7,L
		c.L &^= 0x80
	case 0xBE: // RES 7,(HL)
		c.writeHL(c.readHL() &^ 0x80)
	case 0xBF: // RES 7,A
		c.A &^= 0x80
	case 0xC0: // SET 0,B
		c.B |= 0x01
	case 0xC1: // SET 0,C
		c.C |= 0x01
	case 0xC2: // SET 0,D
		c.D |= 0x01
	case 0xC3: // SET 0,E
		c.E |= 0x01
	case 0xC4: // SET 0,H
		c.H |= 0x01
	case 0xC5: // SET 0,L
		c.L |= 0x01
	case 0xC6: // SET 0,(HL)
		c.writeHL(c.readHL() | 0x01)
	case 0xC7: // SET 0,A
		c.A |= 0x01
	case 0xC8: // SET 1,B
		c.B |= 0x02
	case 0xC9: // SET 1,C
		c.C |= 0x02
	case 0xCA: // SET 1,D
		c.D |= 0x02
	case 0xCB: // SET 1,E
		c.E |= 0x02
	case 0xCC: // SET 1,H
		c.H |= 0x02
	case 0xCD: // SET 1,L
		c.L |= 0x02
	case 0xCE: // SET 1,(HL)
		c.writeHL(c.readHL() | 0x02)
	case 0xCF: // SET 1,A
		c.A |= 0x02
	case 0xD0: // SET 2,B
		c.B |= 0x04
	case 0xD1: // SET 2,C
		c.C |= 0x04
	case 0xD2: // SET 2,D
		c.D |= 0x04
	case 0xD3: // SET 2,E
		c.E |= 0x04
	case 0xD4: // SET 2,H
		c.H |= 0x04
	case 0xD5: // SET 2,L
		c.L |= 0x04
	case 0xD6: // SET 2,(HL)
		c.writeHL(c.readHL() | 0x04)
	case 0xD7: // SET 2,A
		c.A |= 0x04
	case 0xD8: // SET 3,B
		c.B |= 0x08
	case 0xD9: // SET 3,C
		c.C |= 0x08
	case 0xDA: // SET 3,D
		c.D |= 0x08
	case 0xDB: // SET 3,E
		c.E |= 0x08
	case 0xDC: // SET 3,H
		c.H |= 0x08
	case 0xDD: // SET 3,L
		c.L |= 0x08
	case 0xDE: // SET 3,(HL)
		c.writeHL(c.readHL() | 0x08)
	case 0xDF: // SET 3,A
		c.A |= 0x08
	case 0xE0: // SET 4,B
		c.B |= 0x10
	case 0xE1: // SET 4,C
		c.C |= 0x10
	case 0xE2: // SET 4,D
		c.D |= 0x10
	case 0xE3: // SET 4,E
		c.E |= 0x10
	case 0xE4: // SET 4,H
		c.H |= 0x10
	case 0xE5: // SET 4,L
		c.L |= 0x10
	case 0xE6: // SET 4,(HL)
		c.writeHL(c.readHL() | 0x10)
	case 0xE7: // SET 4,A
		c.A |= 0x10
	case 0xE8: // SET 5,B
		c.B |= 0x20
	case 0xE9: // SET 5,C
		c.C |= 0x20
	case 0xEA: // SET 5,D
		c.D |= 0x20
	case 0xEB: // SET 5,E
		c.E |= 0x20
	case 0xEC: // SET 5,H
		c.H |= 0x20
	case 0xED: // SET 5,L
		c.L |= 0x20
	case 0xEE: // SET 5,(HL)
		c.writeHL(c.readHL() | 0x20)
	case 0xEF: // SET 5,A
		c.A |= 0x20
	case 0xF0: // SET 6,B
		c.B |= 0x40
	case 0xF1: // SET 6,C
		c.C |= 0x40
	case 0xF2: // SET 6,D
		c.D |= 0x40
	case 0xF3: // SET 6,E
		c.E |= 0x40
	case 0xF4: // SET 6,H
		c.H |= 0x40
	case 0xF5: // SET 6,L
		c.L |= 0x40
	case 0xF6: // SET 6,(HL)
		c.writeHL(c.readHL() | 0x40)
	case 0xF7: // SET 6,A
		c.A |= 0x40
	case 0xF8: // SET 7,B
		c.B |= 0x80
	case 0xF9: // SET 7,C
		c.C |= 0x80
	case 0xFA: // SET 7,D
		c.D |= 0x80
	case 0xFB: // SET 7,E
		c.E |= 0x80
	case 0xFC: // SET 7,H
		c.H |= 0x80
	case 0xFD: // SET 7,L
		c.L |= 0x80
	case 0xFE: // SET 7,(HL)
		c.writeHL(c.readHL() | 0x80)
	case 0xFF: // SET 7,A
		c.A |= 0x80
	}
	return nil
}

// execDDCB executes DD/FD CB d op: rotates and bit operations on
// (IX+d). The low three bits of op select no register here, so the
// page has 32 operations. The operand is always memory, never I/O.
func (c *CPU) execDDCB(ix *uint16) error {
	addr := c.ixd(ix)
	op := c.fetch8()
	c.Cycles += 12
	v := c.Mem.Read(addr)
	mask := uint8(1) << (op >> 3 & 7)
	switch op >> 3 {
	case 0x00: // RLC (IX+d)
		c.Mem.Write(addr, c.rlc(v))
	case 0x01: // RRC (IX+d)
		c.Mem.Write(addr, c.rrc(v))
	case 0x02: // RL (IX+d)
		c.Mem.Write(addr, c.rl(v))
	case 0x03: // RR (IX+d)
		c.Mem.Write(addr, c.rr(v))
	case 0x04: // SLA (IX+d)
		c.Mem.Write(addr, c.sla(v))
	case 0x05: // SRA (IX+d)
		c.Mem.Write(addr, c.sra(v))
	case 0x06: // SLL (IX+d)
		c.Mem.Write(addr, c.sll(v))
	case 0x07: // SRL (IX+d)
		c.Mem.Write(addr, c.srl(v))
	case 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F: // BIT b,(IX+d)
		c.bit(mask, v)
	case 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17: // RES b,(IX+d)
		c.Mem.Write(addr, v&^mask)
	default: // SET b,(IX+d)
		c.Mem.Write(addr, v|mask)
	}
	return nil
}

// execED executes the ED page subset the toolchain emits. Its memory
// operands are always memory, never I/O.
func (c *CPU) execED() error {
	op := c.fetch8()
	switch op {
	case 0x42: // SBC HL,BC
		c.sbcHL(c.bc())
	case 0x52: // SBC HL,DE
		c.sbcHL(c.de())
	case 0x62: // SBC HL,HL
		c.sbcHL(c.hl())
	case 0x72: // SBC HL,SP
		c.sbcHL(c.SP)
	case 0x4A: // ADC HL,BC
		c.adcHL(c.bc())
	case 0x5A: // ADC HL,DE
		c.adcHL(c.de())
	case 0x6A: // ADC HL,HL
		c.adcHL(c.hl())
	case 0x7A: // ADC HL,SP
		c.adcHL(c.SP)
	case 0x43: // LD (nn),BC
		c.Mem.Write16(c.fetch16(), c.bc())
		c.Cycles += 13
	case 0x53: // LD (nn),DE
		c.Mem.Write16(c.fetch16(), c.de())
		c.Cycles += 13
	case 0x63: // LD (nn),HL
		c.Mem.Write16(c.fetch16(), c.hl())
		c.Cycles += 13
	case 0x73: // LD (nn),SP
		c.Mem.Write16(c.fetch16(), c.SP)
		c.Cycles += 13
	case 0x4B: // LD BC,(nn)
		c.setBC(c.Mem.Read16(c.fetch16()))
		c.Cycles += 11
	case 0x5B: // LD DE,(nn)
		c.setDE(c.Mem.Read16(c.fetch16()))
		c.Cycles += 11
	case 0x6B: // LD HL,(nn)
		c.setHL(c.Mem.Read16(c.fetch16()))
		c.Cycles += 11
	case 0x7B: // LD SP,(nn)
		c.SP = c.Mem.Read16(c.fetch16())
		c.Cycles += 11
	case 0x44: // NEG
		v := c.A
		c.A = 0
		c.A = c.sub8(v, 0)
		c.Cycles += 4
	case 0x4D: // RETI
		c.PC = c.pop16()
		c.Cycles += 12
		if c.Hook != nil {
			c.flow, c.flowTarget = FlowRet, c.PC
		}
	case 0xA0: // LDI
		c.blockMove(1, false)
	case 0xA8: // LDD
		c.blockMove(0xFFFF, false)
	case 0xB0: // LDIR
		c.blockMove(1, true)
	case 0xB8: // LDDR
		c.blockMove(0xFFFF, true)
	default:
		return fmt.Errorf("%w: ED %02x at PC=%04x", ErrIllegalOpcode, op, c.PC-2)
	}
	return nil
}
