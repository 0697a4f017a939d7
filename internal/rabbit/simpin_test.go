package rabbit_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/aesasm"
	"repro/internal/aesc"
	"repro/internal/core"
)

// TestSimulatedStatisticsPinned pins every simulated statistic the §6
// experiments and the rabbit-aes benchmark report, for one fixed key
// and block: total Cycles and Instructions of the benchmark's two
// chains, the marginal cycles per block, the compiled code size, and
// the profiler's folded stacks. A change that only makes the simulator
// faster must leave all of them identical.
func TestSimulatedStatisticsPinned(t *testing.T) {
	const (
		asmBlocks, cBlocks = 8, 1 // one rabbit-aes request
		wantAsmCycles      = 142832
		wantAsmInstr       = 29133
		wantCCycles        = 250016
		wantCInstr         = 57068
		wantAsmPerBlock    = 17162
		wantCPerBlock      = 201115
		wantCodeSize       = 5253
		wantFoldedSHA256   = "8b6a5390890748530e3c3691c6ea1cfe5ec09e30b38086e14782ba66dd8c2d25"
	)
	key, block := pinInputs()
	all := core.E2Configs[len(core.E2Configs)-1].Opt

	a := asmCPU(t, key, block, asmBlocks)
	if err := a.Run(uint64(asmBlocks)*200_000 + 2_000_000); err != nil {
		t.Fatal(err)
	}
	if a.Cycles != wantAsmCycles || a.Instructions != wantAsmInstr {
		t.Errorf("aesasm %d-block chain: %d cycles, %d instructions; want %d, %d",
			asmBlocks, a.Cycles, a.Instructions, wantAsmCycles, wantAsmInstr)
	}
	cm := cMachine(t, all, key, block, cBlocks)
	if err := cm.Run(uint64(cBlocks)*5_000_000 + 20_000_000); err != nil {
		t.Fatal(err)
	}
	if cm.CPU.Cycles != wantCCycles || cm.CPU.Instructions != wantCInstr {
		t.Errorf("aesc %d-block chain: %d cycles, %d instructions; want %d, %d",
			cBlocks, cm.CPU.Cycles, cm.CPU.Instructions, wantCCycles, wantCInstr)
	}

	am, err := aesasm.Load()
	if err != nil {
		t.Fatal(err)
	}
	// The bare CPU above must be the driver's workload exactly.
	if _, cyc, err := am.EncryptChain(key, block, asmBlocks); err != nil || cyc != a.Cycles {
		t.Errorf("aesasm.EncryptChain: %d cycles (%v), bare CPU %d", cyc, err, a.Cycles)
	}
	if got, err := am.CyclesPerBlock(8); err != nil || got != wantAsmPerBlock {
		t.Errorf("aesasm CyclesPerBlock(8) = %v (%v), want %d", got, err, wantAsmPerBlock)
	}
	c, err := aesc.Build(all)
	if err != nil {
		t.Fatal(err)
	}
	if _, cyc, err := c.EncryptChain(key, block, cBlocks); err != nil || cyc != cm.CPU.Cycles {
		t.Errorf("aesc.EncryptChain: %d cycles (%v), bare CPU %d", cyc, err, cm.CPU.Cycles)
	}
	if got, err := c.CyclesPerBlock(8); err != nil || got != wantCPerBlock {
		t.Errorf("aesc CyclesPerBlock(8) = %v (%v), want %d", got, err, wantCPerBlock)
	}
	if got := c.CodeSize(); got != wantCodeSize {
		t.Errorf("aesc CodeSize = %d, want %d", got, wantCodeSize)
	}

	prof := am.EnableProfiler()
	if _, _, err := am.EncryptChain(key, block, asmBlocks); err != nil {
		t.Fatal(err)
	}
	var folded bytes.Buffer
	if err := prof.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(folded.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantFoldedSHA256 {
		t.Errorf("aesasm folded profile sha256 = %s, want %s\n%s", got, wantFoldedSHA256, folded.String())
	}
}
