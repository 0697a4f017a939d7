package rabbit_test

import (
	"testing"

	"repro/internal/aesasm"
	"repro/internal/aesc"
	"repro/internal/dcc"
	"repro/internal/rabbit"
	"repro/internal/rasm"
)

// The §6 workloads as bare CPUs: the same images and set-up as
// aesasm.Machine.EncryptChain and aesc.Machine.EncryptChain, but with
// the CPU in hand, so tests can read Instructions or step it.

// pinInputs returns the fixed key and block the drivers'
// CyclesPerBlock uses.
func pinInputs() (key, block [16]byte) {
	for i := range key {
		key[i] = byte(i)
		block[i] = byte(i * 17)
	}
	return key, block
}

// asmCPU returns a CPU loaded with the hand-written AES, ready to run a
// blocks-long chain from key and block.
func asmCPU(tb testing.TB, key, block [16]byte, blocks int) *rabbit.CPU {
	tb.Helper()
	prog, err := rasm.Assemble(aesasm.Source())
	if err != nil {
		tb.Fatal(err)
	}
	c := rabbit.New()
	c.Mem.LoadPhysical(uint32(prog.Origin), prog.Code)
	c.PC = prog.Origin
	keyAt, stateAt, nAt := prog.Symbols["KEY"], prog.Symbols["STATE"], prog.Symbols["NBLOCKS"]
	for i := range key {
		c.Mem.Write(keyAt+uint16(i), key[i])
		c.Mem.Write(stateAt+uint16(i), block[i])
	}
	c.Mem.Write16(nAt, uint16(blocks))
	return c
}

// cMachine returns a dcc machine loaded with the C AES compiled under
// opt, ready to run a blocks-long chain from key and block.
func cMachine(tb testing.TB, opt dcc.Options, key, block [16]byte, blocks int) *dcc.Machine {
	tb.Helper()
	comp, err := dcc.Compile(aesc.Source(), opt)
	if err != nil {
		tb.Fatal(err)
	}
	m := dcc.NewMachine(comp)
	if err := m.PokeBytes("key", key[:]); err != nil {
		tb.Fatal(err)
	}
	if err := m.PokeBytes("state", block[:]); err != nil {
		tb.Fatal(err)
	}
	if err := m.PokeInt("nblocks", uint16(blocks)); err != nil {
		tb.Fatal(err)
	}
	return m
}
