package aesasm

import (
	"bytes"
	"testing"

	"repro/internal/crypto/aes"
)

func TestMatchesFIPSVector(t *testing.T) {
	m, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	key := [16]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
		0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}
	block := [16]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
		0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	want := []byte{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
		0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a}
	got, cycles, err := m.EncryptChain(key, block, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:], want) {
		t.Fatalf("asm AES = %x, want %x", got, want)
	}
	if cycles == 0 {
		t.Error("no cycles counted")
	}
	t.Logf("single block incl. key schedule: %d cycles", cycles)
}

// TestChainMatchesReference cross-checks chained encryption against the
// Go reference for several keys.
func TestChainMatchesReference(t *testing.T) {
	m, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 4; seed++ {
		var key, block [16]byte
		for i := range key {
			key[i] = byte(i*7 + seed*13 + 1)
			block[i] = byte(i*31 + seed*5 + 2)
		}
		const n = 5
		got, _, err := m.EncryptChain(key, block, n)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := aes.NewAES(key[:])
		if err != nil {
			t.Fatal(err)
		}
		want := block
		for i := 0; i < n; i++ {
			ref.Encrypt(want[:], want[:])
		}
		if got != want {
			t.Errorf("seed %d: chain = %x, want %x", seed, got, want)
		}
	}
}

func TestCyclesPerBlockStable(t *testing.T) {
	m, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.CyclesPerBlock(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.CyclesPerBlock(16)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 || b <= 0 {
		t.Fatalf("cycles/block: %f, %f", a, b)
	}
	// Marginal cost should be independent of chain length.
	ratio := a / b
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("cycles/block varies with chain length: %f vs %f", a, b)
	}
	t.Logf("asm AES: %.0f cycles/block", a)
}

func TestCodeSizeSane(t *testing.T) {
	m, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	size := m.CodeSize()
	// The code section should be a few hundred bytes to ~2 KB —
	// definitely smaller than the whole image with its tables.
	if size < 100 || size > 4096 {
		t.Errorf("code size = %d bytes", size)
	}
	t.Logf("asm AES code size: %d bytes", size)
}
