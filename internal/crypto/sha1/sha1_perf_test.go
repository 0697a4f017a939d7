package sha1

import (
	"bytes"
	stdsha1 "crypto/sha1"
	"math/rand"
	"testing"

	"repro/internal/race"
)

// TestCompressEquivalence diffs Sum1 and the streaming Digest against
// crypto/sha1 over 10k seeded messages of 0-4 blocks, so most
// compressions start from a chaining state other than the IV. The
// streaming side writes each message in random-sized chunks.
func TestCompressEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var d Digest
	for i := 0; i < 10_000; i++ {
		msg := make([]byte, rng.Intn(4*BlockSize+1))
		rng.Read(msg)
		want := stdsha1.Sum(msg)
		if got := Sum1(msg); got != want {
			t.Fatalf("vector %d (%d bytes): Sum1 %x, crypto/sha1 %x", i, len(msg), got, want)
		}
		d.Reset()
		for p := msg; len(p) > 0; {
			n := 1 + rng.Intn(len(p))
			d.Write(p[:n])
			p = p[n:]
		}
		var got [Size]byte
		d.SumInto(&got)
		if got != want {
			t.Fatalf("vector %d (%d bytes): Digest %x, crypto/sha1 %x", i, len(msg), got, want)
		}
	}
}

// TestHMACStateMatchesOneShot checks the pad-caching streaming HMAC
// against the one-shot form over 10k seeded key/message pairs, with
// state reuse across messages (the record-layer usage pattern).
func TestHMACStateMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var st *HMACState
	var key []byte
	for i := 0; i < 10_000; i++ {
		if i%8 == 0 { // re-key every 8 messages
			key = make([]byte, 1+rng.Intn(100))
			rng.Read(key)
			st = NewHMAC(key)
		} else {
			st.Reset()
		}
		msg := make([]byte, rng.Intn(300))
		rng.Read(msg)
		st.Write(msg)
		var got [Size]byte
		st.SumInto(&got)
		want := HMAC(key, msg)
		if got != want {
			t.Fatalf("vector %d: streaming %x != one-shot %x", i, got, want)
		}
	}
}

func TestStreamingZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	msg := make([]byte, 300)
	st := NewHMAC([]byte("record mac key twenty"))
	var out [Size]byte
	if n := testing.AllocsPerRun(100, func() {
		st.Reset()
		st.Write(msg)
		st.SumInto(&out)
	}); n != 0 {
		t.Errorf("HMAC stream allocates %v per MAC, want 0", n)
	}
	var d Digest
	if n := testing.AllocsPerRun(100, func() {
		d.Reset()
		d.Write(msg)
		d.SumInto(&out)
	}); n != 0 {
		t.Errorf("Digest stream allocates %v per hash, want 0", n)
	}
}

func TestSumIntoMatchesSum(t *testing.T) {
	d := New()
	d.Write([]byte("both forms agree"))
	var a [Size]byte
	d.SumInto(&a)
	if !bytes.Equal(a[:], d.Sum(nil)) {
		t.Error("SumInto != Sum")
	}
}

func BenchmarkCompressUnrolled(b *testing.B) {
	var d Digest
	d.Reset()
	block := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		d.compress(block)
	}
}

func BenchmarkHMACStream_256B(b *testing.B) {
	st := NewHMAC([]byte("record mac key twenty"))
	msg := make([]byte, 256)
	var out [Size]byte
	b.SetBytes(256)
	for i := 0; i < b.N; i++ {
		st.Reset()
		st.Write(msg)
		st.SumInto(&out)
	}
}

func BenchmarkHMACOneShot_256B(b *testing.B) {
	key := []byte("record mac key twenty")
	msg := make([]byte, 256)
	b.SetBytes(256)
	for i := 0; i < b.N; i++ {
		HMAC(key, msg)
	}
}
