// Package aesc compiles and drives the C implementation of AES-128
// (aes128.dc, written in the Dynamic C subset) on the Rabbit simulator.
// It is the "C port" side of the paper's §6 experiment; internal/aesasm
// is the hand-assembly side; internal/crypto/aes adjudicates both.
package aesc

import (
	_ "embed"
	"fmt"

	"repro/internal/dcc"
	"repro/internal/rabbit"
)

//go:embed aes128.dc
var source string

// Source returns the C source text.
func Source() string { return source }

// Build compiles the AES C source under the given options.
func Build(opt dcc.Options) (*Machine, error) {
	comp, err := dcc.Compile(source, opt)
	if err != nil {
		return nil, fmt.Errorf("aesc: %w", err)
	}
	return &Machine{comp: comp, m: dcc.NewMachine(comp)}, nil
}

// Machine wraps a compiled AES image.
type Machine struct {
	comp *dcc.Compilation
	m    *dcc.Machine
}

// CodeSize returns the compiled code size in bytes (data excluded).
func (a *Machine) CodeSize() int { return a.comp.CodeSize() }

// EnableProfiler attaches a cycle profiler to the underlying machine
// and returns it. Attach before EncryptChain; read reports after.
func (a *Machine) EnableProfiler() *rabbit.Profiler { return a.m.EnableProfiler() }

// CPU returns the simulator the machine runs on; its counters
// describe the last run.
func (a *Machine) CPU() *rabbit.CPU { return a.m.CPU }

// Asm returns the generated assembly listing.
func (a *Machine) Asm() string { return a.comp.Asm }

// EncryptChain runs `blocks` chained encryptions and returns the final
// state and total cycles (including key schedule), like the asm driver.
func (a *Machine) EncryptChain(key, block [16]byte, blocks int) ([16]byte, uint64, error) {
	a.m.Reset()
	if err := a.m.PokeBytes("key", key[:]); err != nil {
		return [16]byte{}, 0, err
	}
	if err := a.m.PokeBytes("state", block[:]); err != nil {
		return [16]byte{}, 0, err
	}
	if err := a.m.PokeInt("nblocks", uint16(blocks)); err != nil {
		return [16]byte{}, 0, err
	}
	budget := uint64(blocks)*5_000_000 + 20_000_000
	if err := a.m.Run(budget); err != nil {
		return [16]byte{}, 0, fmt.Errorf("aesc: %w", err)
	}
	var res [16]byte
	if err := a.m.PeekBytes("state", res[:]); err != nil {
		return [16]byte{}, 0, err
	}
	return res, a.m.CPU.Cycles, nil
}

// CyclesPerBlock measures marginal per-block cost (key schedule
// subtracted), like the asm counterpart.
func (a *Machine) CyclesPerBlock(n int) (float64, error) {
	var key, block [16]byte
	for i := range key {
		key[i] = byte(i)
		block[i] = byte(i * 17)
	}
	_, c1, err := a.EncryptChain(key, block, 1)
	if err != nil {
		return 0, err
	}
	_, cN, err := a.EncryptChain(key, block, n+1)
	if err != nil {
		return 0, err
	}
	return float64(cN-c1) / float64(n), nil
}
