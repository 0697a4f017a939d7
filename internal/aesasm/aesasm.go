// Package aesasm loads and drives the hand-written Rabbit assembly
// AES-128 (aes128.asm) on the CPU simulator. It is one side of the
// paper's §6 experiment; the other side is the same algorithm in C,
// compiled by internal/dcc. The Go reference implementation
// (internal/crypto/aes) adjudicates correctness for both.
package aesasm

import (
	_ "embed"
	"fmt"

	"repro/internal/rabbit"
	"repro/internal/rasm"
)

//go:embed aes128.asm
var source string

// Machine is a Rabbit with the assembly AES loaded.
type Machine struct {
	cpu  *rabbit.CPU
	prog *rasm.Program
}

// Buffer addresses fixed by the assembly source.
const (
	addrKey     = 0x0E00
	addrState   = 0x0E10
	addrNBlocks = 0x0E36
)

// Load assembles the source and prepares a machine.
func Load() (*Machine, error) {
	prog, err := rasm.Assemble(source)
	if err != nil {
		return nil, fmt.Errorf("aesasm: %w", err)
	}
	m := &Machine{cpu: rabbit.New(), prog: prog}
	m.cpu.Mem.LoadPhysical(uint32(prog.Origin), prog.Code)
	return m, nil
}

// EnableProfiler attaches a cycle profiler to the machine's CPU and
// returns it. The profiler survives the Reset inside EncryptChain
// (its totals restart with CPU.Cycles), so read reports after the run.
func (m *Machine) EnableProfiler() *rabbit.Profiler {
	p := rabbit.NewProgramProfiler(m.prog.Origin, m.prog.Code, m.prog.Symbols)
	p.Attach(m.cpu)
	return p
}

// CPU returns the simulator the machine runs on; its counters
// describe the last run.
func (m *Machine) CPU() *rabbit.CPU { return m.cpu }

// CodeSize returns the size in bytes of the code section only
// (tables and buffers excluded) — the paper's E3 metric.
func (m *Machine) CodeSize() int {
	end, ok := m.prog.Symbols["code_end"]
	if !ok {
		return m.prog.Size()
	}
	return int(end - m.prog.Origin)
}

// EncryptChain loads key and block, then runs blocks chained
// encryptions on the simulator (output feeding input, the "pump keys
// through" workload). It returns the final state and the cycle count.
func (m *Machine) EncryptChain(key, block [16]byte, blocks int) ([16]byte, uint64, error) {
	c := m.cpu
	c.Reset()
	c.PC = m.prog.Origin
	for i, b := range key {
		c.Mem.Write(addrKey+uint16(i), b)
	}
	for i, b := range block {
		c.Mem.Write(addrState+uint16(i), b)
	}
	c.Mem.Write16(addrNBlocks, uint16(blocks))
	// Budget: generous per block plus key-schedule overhead.
	budget := uint64(blocks)*200_000 + 2_000_000
	if err := c.Run(budget); err != nil {
		return [16]byte{}, 0, fmt.Errorf("aesasm: %w", err)
	}
	var out [16]byte
	for i := range out {
		out[i] = c.Mem.Read(addrState + uint16(i))
	}
	return out, c.Cycles, nil
}

// CyclesPerBlock measures the marginal per-block cost by running 1 and
// n+1 blocks and differencing, removing the key-schedule overhead.
func (m *Machine) CyclesPerBlock(n int) (float64, error) {
	var key, block [16]byte
	for i := range key {
		key[i] = byte(i)
		block[i] = byte(i * 17)
	}
	_, c1, err := m.EncryptChain(key, block, 1)
	if err != nil {
		return 0, err
	}
	_, cN, err := m.EncryptChain(key, block, n+1)
	if err != nil {
		return 0, err
	}
	return float64(cN-c1) / float64(n), nil
}
