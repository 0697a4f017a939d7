package rabbit

// Flag arithmetic. Every helper computes the flags it defines as one
// mask expression and leaves the rest of F alone: bits 3 and 5, which
// this simulator does not model, keep whatever POP AF last put there.

// flagsKept is the part of F no modeled operation writes.
const flagsKept = ^(FlagS | FlagZ | FlagH | FlagPV | FlagN | FlagC)

// szTable and szpTable give the S and Z flags, and S, Z and parity-as-PV,
// of an 8-bit result.
var szTable, szpTable = func() (sz, szp [256]uint8) {
	for i := range sz {
		v := uint8(i)
		sz[i] = v & FlagS
		if v == 0 {
			sz[i] |= FlagZ
		}
		szp[i] = sz[i]
		if parity(v) {
			szp[i] |= FlagPV
		}
	}
	return sz, szp
}()

func parity(v uint8) bool {
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return v&1 == 0
}

// add8 is ADD/ADC: A += v + carry. H is the carry into bit 4, PV the
// signed overflow.
func (c *CPU) add8(v, carry uint8) {
	a := c.A
	r := uint16(a) + uint16(v) + uint16(carry)
	res := uint8(r)
	c.F = c.F&flagsKept | szTable[res] | uint8(r>>8) | (a^v^res)&FlagH | (a^res)&(v^res)&0x80>>5
	c.A = res
}

// sub8 is SUB/SBC/CP: it returns A - v - carry and sets the flags; the
// caller decides whether A takes the result.
func (c *CPU) sub8(v, carry uint8) uint8 {
	a := c.A
	r := uint16(a) - uint16(v) - uint16(carry)
	res := uint8(r)
	c.F = c.F&flagsKept | szTable[res] | uint8(r>>8)&FlagC | (a^v^res)&FlagH | FlagN | (a^v)&(a^res)&0x80>>5
	return res
}

func (c *CPU) and8(v uint8) {
	c.A &= v
	c.F = c.F&flagsKept | szpTable[c.A] | FlagH
}

func (c *CPU) xor8(v uint8) {
	c.A ^= v
	c.F = c.F&flagsKept | szpTable[c.A]
}

func (c *CPU) or8(v uint8) {
	c.A |= v
	c.F = c.F&flagsKept | szpTable[c.A]
}

// inc8 and dec8 leave C alone; PV flags the 0x7F/0x80 crossing.
func (c *CPU) inc8(v uint8) uint8 {
	r := v + 1
	c.F = c.F&(flagsKept|FlagC) | szTable[r] | (v^r)&FlagH | r&^v&0x80>>5
	return r
}

func (c *CPU) dec8(v uint8) uint8 {
	r := v - 1
	c.F = c.F&(flagsKept|FlagC) | szTable[r] | (v^r)&FlagH | v&^r&0x80>>5 | FlagN
	return r
}

// addHL is ADD HL/IX/IY,rp: C and the carry into bit 12 as H.
func (c *CPU) addHL(hl, v uint16) uint16 {
	r := uint32(hl) + uint32(v)
	res := uint16(r)
	c.F = c.F&^(FlagC|FlagH|FlagN) | uint8(r>>16) | uint8((hl^v^res)>>8)&FlagH
	return res
}

// sbcHL and adcHL are the ED-page 16-bit SBC/ADC HL,rp.
func (c *CPU) sbcHL(v uint16) {
	hl := c.hl()
	r := uint32(hl) - uint32(v) - uint32(c.F&FlagC)
	res := uint16(r)
	f := c.F&flagsKept | uint8(r>>16)&FlagC | FlagN | uint8(res>>8)&FlagS |
		uint8((hl^v^res)>>8)&FlagH | uint8((hl^v)&(hl^res)&0x8000>>13)
	if res == 0 {
		f |= FlagZ
	}
	c.F = f
	c.setHL(res)
	c.Cycles += 4
}

func (c *CPU) adcHL(v uint16) {
	hl := c.hl()
	r := uint32(hl) + uint32(v) + uint32(c.F&FlagC)
	res := uint16(r)
	f := c.F&flagsKept | uint8(r>>16) | uint8(res>>8)&FlagS |
		uint8((hl^v^res)>>8)&FlagH | uint8((hl^res)&(v^res)&0x8000>>13)
	if res == 0 {
		f |= FlagZ
	}
	c.F = f
	c.setHL(res)
	c.Cycles += 4
}

// rotA finishes RLCA/RRCA/RLA/RRA: A takes r, C takes carry, and S, Z
// and PV are left alone.
func (c *CPU) rotA(r, carry uint8) {
	c.A = r
	c.F = c.F&^(FlagC|FlagH|FlagN) | carry
	c.Cycles += 2
}

// daa implements decimal adjust (Z80 semantics).
func (c *CPU) daa() {
	a, f := c.A, c.F
	var adjust, carry uint8
	if f&FlagH != 0 || a&0x0f > 9 {
		adjust = 0x06
	}
	if f&FlagC != 0 || a > 0x99 {
		adjust |= 0x60
		carry = FlagC
	}
	var half bool
	if f&FlagN != 0 {
		half = f&FlagH != 0 && a&0x0f < 6
		a -= adjust
	} else {
		half = a&0x0f > 9
		a += adjust
	}
	c.A = a
	c.F = f&(flagsKept|FlagN) | szpTable[a] | carry
	if half {
		c.F |= FlagH
	}
}

// The CB-page rotates and shifts: each returns the result and sets S, Z,
// parity and C from it, clearing H and N.

func (c *CPU) shifted(r, carry uint8) uint8 {
	c.F = c.F&flagsKept | szpTable[r] | carry
	return r
}

func (c *CPU) rlc(v uint8) uint8 { return c.shifted(v<<1|v>>7, v>>7) }
func (c *CPU) rrc(v uint8) uint8 { return c.shifted(v>>1|v<<7, v&1) }
func (c *CPU) rl(v uint8) uint8  { return c.shifted(v<<1|c.F&FlagC, v>>7) }
func (c *CPU) rr(v uint8) uint8  { return c.shifted(v>>1|c.F<<7, v&1) }
func (c *CPU) sla(v uint8) uint8 { return c.shifted(v<<1, v>>7) }
func (c *CPU) sra(v uint8) uint8 { return c.shifted(v>>1|v&0x80, v&1) }

// sll is undocumented on the Z80; kept for completeness.
func (c *CPU) sll(v uint8) uint8 { return c.shifted(v<<1|1, v>>7) }
func (c *CPU) srl(v uint8) uint8 { return c.shifted(v>>1, v&1) }

// bit is BIT: Z when the masked bit is clear, H set, N clear.
func (c *CPU) bit(mask, v uint8) {
	f := c.F&^(FlagZ|FlagN) | FlagH
	if v&mask == 0 {
		f |= FlagZ
	}
	c.F = f
}
