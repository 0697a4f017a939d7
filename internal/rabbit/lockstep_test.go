package rabbit_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rabbit"
)

// Lockstep tests: the table-dispatched decoder against the original
// nested decoder (RefStep/RefRun, refcpu_test.go). Two CPUs start from
// the same state; after every step the registers, flags, counters,
// errors, bus traffic, hook events and every mapped memory page must
// agree.

// busEvent is one I/O access, with the cycle count the CPU showed the
// device at that moment.
type busEvent struct {
	out    bool
	port   uint16
	v      uint8
	cycles uint64
}

// recordingBus logs every access and passes it on.
type recordingBus struct {
	cpu   *rabbit.CPU
	inner rabbit.Bus
	log   []busEvent
}

func (b *recordingBus) In(port uint16) uint8 {
	v := b.inner.In(port)
	b.log = append(b.log, busEvent{port: port, v: v, cycles: b.cpu.Cycles})
	return v
}

func (b *recordingBus) Out(port uint16, v uint8) {
	b.log = append(b.log, busEvent{out: true, port: port, v: v, cycles: b.cpu.Cycles})
	b.inner.Out(port, v)
}

// mmuBus routes ports 0x10-0x13 to the MMU registers, so random code
// remaps memory mid-stream, and answers other reads with a value
// derived from the port.
type mmuBus struct{ mem *rabbit.Memory }

func (b mmuBus) In(port uint16) uint8 {
	if port&0xfffc == 0x10 {
		return b.mem.MMU(rabbit.MMUReg(port & 3))
	}
	return uint8(port*31 + port>>8 + 7)
}

func (b mmuBus) Out(port uint16, v uint8) {
	if port&0xfffc == 0x10 {
		b.mem.SetMMU(rabbit.MMUReg(port&3), v)
	}
}

// recordingHook logs every instruction event.
type recordingHook struct {
	events []rabbit.InstrEvent
	resets int
}

func (h *recordingHook) OnInstr(ev rabbit.InstrEvent) { h.events = append(h.events, ev) }
func (h *recordingHook) OnReset()                     { h.resets++ }

// lockstep drives a production CPU and a reference CPU side by side.
type lockstep struct {
	tb         testing.TB
	prod, ref  *rabbit.CPU
	pbus, rbus *recordingBus
	phook      *recordingHook
	rhook      *recordingHook
	steps      int
	from       uint16 // PC before the step or run being checked
	ran        uint64 // budget of the run being checked, or 0 after a step
}

func (ls *lockstep) where() string {
	if ls.ran != 0 {
		return fmt.Sprintf("run(%d) from PC %04x after step %d", ls.ran, ls.from, ls.steps)
	}
	return fmt.Sprintf("step %d (PC %04x)", ls.steps, ls.from)
}

// newLockstep wraps both CPUs' buses for recording and, if hooked,
// attaches a recording hook to each. The CPUs must start identical.
func newLockstep(tb testing.TB, prod, ref *rabbit.CPU, hooked bool) *lockstep {
	ls := &lockstep{tb: tb, prod: prod, ref: ref}
	ls.pbus = &recordingBus{cpu: prod, inner: prod.IO}
	ls.rbus = &recordingBus{cpu: ref, inner: ref.IO}
	prod.IO, ref.IO = ls.pbus, ls.rbus
	if hooked {
		ls.phook, ls.rhook = &recordingHook{}, &recordingHook{}
		prod.Hook, ref.Hook = ls.phook, ls.rhook
	}
	ls.check(nil, nil, rabbit.MappedPages(prod))
	return ls
}

// step runs one Step on each CPU and compares; it returns the
// production error.
func (ls *lockstep) step() error {
	ls.tb.Helper()
	before := rabbit.MappedPages(ls.prod)
	ls.from, ls.ran = ls.prod.PC, 0
	perr := ls.prod.Step()
	rerr := ls.ref.RefStep()
	ls.steps++
	ls.check(perr, rerr, before)
	return perr
}

// run runs Run and RefRun with the same budget and compares.
func (ls *lockstep) run(budget uint64) error {
	ls.tb.Helper()
	before := rabbit.MappedPages(ls.prod)
	ls.from, ls.ran = ls.prod.PC, budget
	perr := ls.prod.Run(budget)
	rerr := ls.ref.RefRun(budget)
	ls.check(perr, rerr, before)
	return perr
}

func (ls *lockstep) check(perr, rerr error, before [16]uint32) {
	ls.tb.Helper()
	if (perr == nil) != (rerr == nil) || perr != nil && perr.Error() != rerr.Error() {
		ls.tb.Fatalf("%s: error %v, reference %v", ls.where(), perr, rerr)
	}
	pages := [][16]uint32{rabbit.MappedPages(ls.prod)}
	if pages[0] != before { // remapped mid-step: check both mappings
		pages = append(pages, before)
	}
	if d := rabbit.DiffState(ls.prod, ls.ref, pages...); d != "" {
		ls.tb.Fatalf("%s: %s\nprod %s\nref  %s", ls.where(), d, ls.prod, ls.ref)
	}
	if !slices.Equal(ls.pbus.log, ls.rbus.log) {
		ls.tb.Fatalf("%s: bus traffic %v, reference %v", ls.where(), ls.pbus.log, ls.rbus.log)
	}
	ls.pbus.log, ls.rbus.log = ls.pbus.log[:0], ls.rbus.log[:0]
	if ls.phook != nil {
		if !slices.Equal(ls.phook.events, ls.rhook.events) || ls.phook.resets != ls.rhook.resets {
			ls.tb.Fatalf("%s: hook events %v (%d resets), reference %v (%d)",
				ls.where(), ls.phook.events, ls.phook.resets, ls.rhook.events, ls.rhook.resets)
		}
		ls.phook.events, ls.rhook.events = ls.phook.events[:0], ls.rhook.events[:0]
	}
}

// runToHalt steps both CPUs until they halt, within a step budget.
func (ls *lockstep) runToHalt(maxSteps int) {
	ls.tb.Helper()
	for !ls.prod.Halted {
		if ls.steps >= maxSteps {
			ls.tb.Fatalf("no HALT within %d steps", maxSteps)
		}
		if err := ls.step(); err != nil {
			ls.tb.Fatal(err)
		}
	}
}

func TestLockstepAESAsm(t *testing.T) {
	key, block := pinInputs()
	for _, hooked := range []bool{false, true} {
		ls := newLockstep(t, asmCPU(t, key, block, 2), asmCPU(t, key, block, 2), hooked)
		ls.runToHalt(1 << 20)
		// The same chain through Run's straight-line loop.
		ls = newLockstep(t, asmCPU(t, key, block, 2), asmCPU(t, key, block, 2), hooked)
		if err := ls.run(1 << 30); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLockstepAESC(t *testing.T) {
	key, block := pinInputs()
	// E2Configs covers every cosimulation option set conform uses
	// (debug, nodebug, all) and each optimization alone. -short keeps
	// the all-optimizations build that rabbit-aes runs.
	configs := core.E2Configs
	if testing.Short() {
		configs = configs[len(configs)-1:]
	}
	for _, cfg := range configs {
		t.Run(cfg.Name, func(t *testing.T) {
			prod := cMachine(t, cfg.Opt, key, block, 1).CPU
			ref := cMachine(t, cfg.Opt, key, block, 1).CPU
			ls := newLockstep(t, prod, ref, cfg.Opt.Debug)
			ls.runToHalt(1 << 22)

			prod = cMachine(t, cfg.Opt, key, block, 1).CPU
			ref = cMachine(t, cfg.Opt, key, block, 1).CPU
			if err := newLockstep(t, prod, ref, false).run(1 << 30); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// edOps are the ED-page opcodes the simulator models.
var edOps = []byte{0x42, 0x52, 0x62, 0x72, 0x4A, 0x5A, 0x6A, 0x7A, 0x43, 0x53, 0x63, 0x73,
	0x4B, 0x5B, 0x6B, 0x7B, 0x44, 0x4D, 0xA0, 0xA8, 0xB0, 0xB8}

// randomCode emits n bytes of instruction-shaped noise weighted toward
// every opcode page: primary, CB, ED (modeled and illegal), DD/FD,
// DD/FD CB, IOI, IOI writes to the MMU ports, and the illegal IOE.
func randomCode(rng *rand.Rand, n int) []byte {
	code := make([]byte, 0, n+8)
	b := func() byte { return byte(rng.Intn(256)) }
	idx := func() byte { return []byte{0xDD, 0xFD}[rng.Intn(2)] }
	for len(code) < n {
		switch k := rng.Intn(20); {
		case k < 8:
			code = append(code, b(), b(), b())
		case k < 10:
			code = append(code, 0xCB, b())
		case k < 12:
			op := edOps[rng.Intn(len(edOps))]
			if rng.Intn(4) == 0 {
				op = b()
			}
			code = append(code, 0xED, op, b(), b())
		case k < 14:
			code = append(code, idx(), b(), b(), b())
		case k < 15:
			code = append(code, idx(), 0xCB, b(), b())
		case k < 17:
			code = append(code, 0xD3, b(), b(), b())
		case k < 18:
			code = append(code, 0xD3, 0x32, 0x10|byte(rng.Intn(4)), 0x00) // IOI LD (001x),A
		case k < 19:
			code = append(code, 0xDB, b())
		default:
			code = append(code, b())
		}
	}
	return code[:n]
}

// randomPair returns two identical CPUs over random memory, random
// registers and a random MMU mapping, with code at logical 0.
func randomPair(rng *rand.Rand) (prod, ref *rabbit.CPU) {
	prod, ref = rabbit.New(), rabbit.New()
	rng.Read(prod.Mem.Phys)
	copy(prod.Mem.Phys, randomCode(rng, 0x10000))
	copy(ref.Mem.Phys, prod.Mem.Phys)
	regs := make([]byte, 32)
	rng.Read(regs)
	flash := []uint32{0, 0x400, 0x2000}[rng.Intn(3)]
	for _, c := range []*rabbit.CPU{prod, ref} {
		setRegisters(c, regs)
		c.Mem.FlashEnd = flash
		c.IO = mmuBus{mem: c.Mem}
	}
	return prod, ref
}

// setRegisters loads a CPU's registers, MMU registers and interrupt
// state from 32 bytes.
func setRegisters(c *rabbit.CPU, r []byte) {
	c.A, c.F, c.B, c.C, c.D, c.E, c.H, c.L = r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
	c.A2, c.F2, c.B2, c.C2, c.D2, c.E2, c.H2, c.L2 = r[8], r[9], r[10], r[11], r[12], r[13], r[14], r[15]
	c.IX = uint16(r[16]) | uint16(r[17])<<8
	c.IY = uint16(r[18]) | uint16(r[19])<<8
	c.SP = uint16(r[20]) | uint16(r[21])<<8
	c.IntVector = uint16(r[22]) | uint16(r[23])<<8
	c.IFF = r[24]&1 != 0
	for reg := rabbit.SegSizeReg; reg <= rabbit.XPCReg; reg++ {
		c.Mem.SetMMU(reg, r[25+int(reg)])
	}
}

// fuzzSteps drives one random stream: steps, occasional interrupts,
// short Runs, and restarts from a random PC after HALT.
func fuzzSteps(ls *lockstep, rng *rand.Rand, steps int) {
	for i := 0; i < steps; i++ {
		switch {
		case ls.prod.Halted && rng.Intn(4) != 0:
			pc := uint16(rng.Intn(0x10000))
			ls.prod.Halted, ls.ref.Halted = false, false
			ls.prod.PC, ls.ref.PC = pc, pc
		case rng.Intn(64) == 0:
			ls.prod.RaiseInt()
			ls.ref.RaiseInt()
		case rng.Intn(64) == 0:
			ls.run(uint64(rng.Intn(200)))
			continue
		}
		ls.step()
	}
}

func TestLockstepRandomStream(t *testing.T) {
	seeds, steps := 16, 3000
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		prod, ref := randomPair(rng)
		ls := newLockstep(t, prod, ref, seed%2 == 0)
		fuzzSteps(ls, rng, steps)
	}
}

// TestLockstepEveryOpcode runs every opcode of every page, alone and
// behind IOI, from random register, flag, MMU and interrupt states.
func TestLockstepEveryOpcode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prod, ref := randomPair(rng)
	ls := newLockstep(t, prod, ref, true)
	hooks := [2]rabbit.InstrHook{prod.Hook, ref.Hook}
	pages := [][]byte{{}, {0xCB}, {0xED}, {0xDD}, {0xFD}, {0xDD, 0xCB, 0}, {0xFD, 0xCB, 0}}
	for _, page := range pages {
		for _, prefix := range [][]byte{nil, {0xD3}} {
			for op := 0; op < 256; op++ {
				for trial := 0; trial < 8; trial++ {
					regs := make([]byte, 32)
					rng.Read(regs)
					pc := uint16(rng.Intn(0x10000))
					code := append(append(append([]byte{}, prefix...), page...), byte(op), byte(rng.Intn(256)), byte(rng.Intn(256)))
					if len(page) == 3 { // DD/FD CB d op: the displacement precedes op
						code[len(code)-4], code[len(code)-3] = byte(rng.Intn(256)), byte(op)
					}
					for _, c := range []*rabbit.CPU{prod, ref} {
						setRegisters(c, regs)
						c.PC, c.Halted = pc, false
						for i, b := range code {
							c.Mem.Phys[c.Mem.Physical(pc+uint16(i))] = b
						}
						c.Hook = nil
						if trial&1 == 1 {
							c.Hook = hooks[0]
							if c == ref {
								c.Hook = hooks[1]
							}
						}
						if trial == 7 {
							c.RaiseInt()
						}
					}
					ls.step()
				}
			}
		}
	}
}

// FuzzRabbitStep runs fuzzer-chosen code and registers through both
// decoders in lockstep. The first 32 bytes set the registers, MMU and
// interrupt state; the rest is code at logical 0, over a seeded random
// memory image.
func FuzzRabbitStep(f *testing.F) {
	regs := make([]byte, 32)
	f.Add(append(regs, 0x3E, 0x42, 0x47, 0x80, 0x27, 0x76))                   // primary
	f.Add(append(regs, 0xCB, 0x38, 0xCB, 0x19, 0xCB, 0x7E, 0xCB, 0xC6))       // CB, (HL) forms
	f.Add(append(regs, 0xED, 0x52, 0xED, 0x44, 0xED, 0xB0, 0xED, 0x00))       // ED and an illegal ED
	f.Add(append(regs, 0xDD, 0x21, 0x00, 0x40, 0xDD, 0x77, 0x05, 0xFD, 0x7E)) // DD/FD
	f.Add(append(regs, 0xDD, 0xCB, 0x05, 0x46, 0xFD, 0xCB, 0xFE, 0xC6))       // DD/FD CB
	f.Add(append(regs, 0xD3, 0x32, 0x13, 0x00, 0xD3, 0x7E, 0xD3, 0xDD, 0x77)) // IOI, MMU port
	f.Add(append(regs, 0xFB, 0x00, 0xDB, 0x00, 0xE3, 0xC9))                   // EI, IOE, EX (SP),HL
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 32 {
			return
		}
		prod, ref := rabbit.New(), rabbit.New()
		rng := rand.New(rand.NewSource(int64(len(data))))
		rng.Read(prod.Mem.Phys[:0x40000])
		copy(prod.Mem.Phys, data[32:])
		copy(ref.Mem.Phys, prod.Mem.Phys)
		for _, c := range []*rabbit.CPU{prod, ref} {
			setRegisters(c, data)
			c.Mem.FlashEnd = uint32(data[29]&3) << 10
			c.IO = mmuBus{mem: c.Mem}
		}
		ls := newLockstep(t, prod, ref, data[30]&1 != 0)
		fuzzSteps(ls, rng, 256)
	})
}
