package sha1

import (
	"bytes"
	"crypto/hmac"
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

// bothPaths runs f as two subtests, one with compress on the SHA-NI
// kernel and one on the portable Go rounds. The hardware half skips on
// a CPU without SHA-NI.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, p := range []struct {
		name string
		ni   bool
	}{{"shani", true}, {"portable", false}} {
		t.Run(p.name, func(t *testing.T) {
			if p.ni && !hasSHANI {
				t.Skip("CPU lacks SHA-NI, SSSE3 or SSE4.1; only the portable path runs here")
			}
			defer SetHardware(SetHardware(p.ni))
			if useSHANI.Load() != p.ni {
				t.Fatalf("SetHardware(%v) left useSHANI = %v", p.ni, useSHANI.Load())
			}
			f(t)
		})
	}
}

// TestMultiBlockRuns streams messages of up to 64 blocks in chunks
// drawn to land on every Write shape — a partial buffer topped up, a
// run of whole blocks handed to compress at once, a tail left over —
// and diffs each digest against crypto/sha1, on both paths. Each
// message starts 0-15 bytes into its buffer.
func TestMultiBlockRuns(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		var d Digest
		for i := 0; i < 2_000; i++ {
			n := rng.Intn(64*BlockSize + 1)
			msg := make([]byte, i%16+n)[i%16:]
			rng.Read(msg)
			want := stdsha1.Sum(msg)
			d.Reset()
			for p := msg; len(p) > 0; {
				var n int
				switch rng.Intn(4) {
				case 0: // short: starts or tops up the partial buffer
					n = 1 + rng.Intn(BlockSize-1)
				case 1: // whole blocks
					n = BlockSize * (1 + rng.Intn(16))
				case 2: // a run of blocks plus a tail
					n = BlockSize*(1+rng.Intn(16)) + 1 + rng.Intn(BlockSize-1)
				default:
					n = 1 + rng.Intn(len(p))
				}
				n = min(n, len(p))
				d.Write(p[:n])
				p = p[n:]
			}
			var got [Size]byte
			d.SumInto(&got)
			if got != want {
				t.Fatalf("vector %d (%d bytes): Digest %x, crypto/sha1 %x", i, len(msg), got, want)
			}
		}
	})
}

// TestHMACRecordShape MACs records the way issl's macInto does — a
// 9-byte sequence/type prefix, a 16-byte IV, then up to 16 KiB of
// ciphertext, each a separate Write on a Reset state — and diffs the
// tag against crypto/hmac over crypto/sha1, on both paths. The 25-byte
// prefix leaves every record's body starting mid-block.
func TestHMACRecordShape(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		var st *HMACState
		var key []byte
		for i := 0; i < 500; i++ {
			if i%16 == 0 {
				key = make([]byte, 1+rng.Intn(2*BlockSize))
				rng.Read(key)
				st = keyedHMAC(key)
			}
			var pre [9]byte
			iv := make([]byte, 16)
			ct := make([]byte, rng.Intn(16<<10+1))
			rng.Read(pre[:])
			rng.Read(iv)
			rng.Read(ct)

			st.Reset()
			st.Write(pre[:])
			st.Write(iv)
			st.Write(ct)
			var got [Size]byte
			st.SumInto(&got)

			ref := hmac.New(stdsha1.New, key)
			ref.Write(pre[:])
			ref.Write(iv)
			ref.Write(ct)
			if want := ref.Sum(nil); !bytes.Equal(got[:], want) {
				t.Fatalf("record %d (key %d B, body %d B): %x, crypto/hmac %x", i, len(key), len(ct), got, want)
			}
		}
	})
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
			st = keyedHMAC(key)
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
	bothPaths(t, func(t *testing.T) {
		msg := make([]byte, 300)
		st := keyedHMAC([]byte("record mac key twenty"))
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
	})
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
	st := keyedHMAC([]byte("record mac key twenty"))
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

// keyedHMAC returns a fresh HMACState keyed with key.
func keyedHMAC(key []byte) *HMACState {
	h := new(HMACState)
	h.Init(key)
	return h
}
