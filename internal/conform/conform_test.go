package conform

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/crypto/aes"
)

// smokeOptions keeps the in-tree regression run to a couple of seconds;
// cmd/conform and CI run the full 10k-vector budget.
func smokeOptions(seed uint64) Options {
	return Options{
		Seed:          seed,
		CryptoVectors: 300,
		ISAPairs:      2,
		ISAChain:      2,
		ProtoVectors:  120,
	}
}

func TestMatrixPassesAtSmokeBudget(t *testing.T) {
	rep := Run(smokeOptions(1))
	for _, res := range rep.Results {
		if !res.Pass() {
			t.Errorf("%s/%s: %d mismatches, err=%q, detail=%v",
				res.Layer, res.Name, res.Mismatches, res.Err, res.Detail)
		}
		if res.Err == "" && res.Vectors == 0 {
			t.Errorf("%s ran zero vectors", res.Name)
		}
	}
	if !rep.Passed {
		t.Fatal("matrix verdict is FAIL")
	}
	if rep.TotalVectors < 5*300 {
		t.Fatalf("suspiciously few vectors: %d", rep.TotalVectors)
	}
}

func TestMatrixCoversAllThreeLayers(t *testing.T) {
	layers := map[string]bool{}
	for _, ck := range suite(Options{}.withDefaults()) {
		layers[ck.layer] = true
	}
	for _, want := range []string{"crypto", "isa", "protocol"} {
		if !layers[want] {
			t.Errorf("suite has no %q layer check", want)
		}
	}
}

// TestRunIsDeterministic: same seed, byte-identical report (modulo
// timing). This is the property that makes a CI failure reproducible
// from the seed it prints.
func TestRunIsDeterministic(t *testing.T) {
	opts := Options{Seed: 7, CryptoVectors: 120, ISAPairs: 1, ISAChain: 2, ProtoVectors: 80}
	a, b := Run(opts), Run(opts)
	stripTimes := func(r *Report) {
		for i := range r.Results {
			r.Results[i].ElapsedMS = 0
		}
	}
	stripTimes(a)
	stripTimes(b)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed, different reports:\n%s\n---\n%s", ja, jb)
	}
}

// TestGuardedPanicBecomesFailure: a panicking check must surface as a
// failed result, never a crashed run.
func TestGuardedPanicBecomesFailure(t *testing.T) {
	ctx := &checkCtx{}
	runGuarded(ctx, func(*checkCtx) { panic("boom") })
	if ctx.err == nil || ctx.mismatches != 1 {
		t.Fatalf("panic not recorded: err=%v mismatches=%d", ctx.err, ctx.mismatches)
	}
}

// TestReportRendering: a seeded failure renders as FAIL in both the
// text table and the JSON artifact.
func TestReportRendering(t *testing.T) {
	rep := &Report{
		Seed: 9,
		Results: []Result{
			{Name: "aes/differential", Layer: "crypto", Vectors: 10, Mismatches: 0, ElapsedMS: 1.5},
			{Name: "isa/aes-cosim", Layer: "isa", Vectors: 4, Mismatches: 2,
				Detail: []string{"asm key=aa: got 00, want 11"}},
		},
	}
	rep.finalize()
	if rep.Passed || rep.TotalVectors != 14 || rep.TotalMismatches != 2 {
		t.Fatalf("finalize: %+v", rep)
	}

	var txt bytes.Buffer
	rep.WriteText(&txt)
	out := txt.String()
	for _, want := range []string{"FAIL", "aes/differential", "isa/aes-cosim", "! asm key=aa"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("JSON artifact does not parse: %v", err)
	}
	if back.Passed || back.TotalMismatches != 2 || len(back.Results) != 2 {
		t.Fatalf("JSON round-trip lost fields: %+v", back)
	}
}

// TestGoldenVectorsAlwaysRun: golden checks must execute their full
// published sets even at tiny budgets (their cost is fixed).
func TestGoldenVectorsAlwaysRun(t *testing.T) {
	rep := Run(Options{Seed: 3, CryptoVectors: 1, ISAPairs: 1, ISAChain: 1, ProtoVectors: 1})
	want := map[string]int{
		"aes/golden-fips197": 8,  // 4 vectors × encrypt+decrypt
		"sha1/golden-nist":   12, // 5 FIPS digests + 7 RFC 2202 HMACs
		"prng/golden-ansi-c": 20, // 10 draws × (seeded + zero-value)
	}
	for _, res := range rep.Results {
		if n, ok := want[res.Name]; ok {
			if res.Vectors != n {
				t.Errorf("%s: %d vectors, want %d", res.Name, res.Vectors, n)
			}
			if !res.Pass() {
				t.Errorf("%s failed: %v %s", res.Name, res.Detail, res.Err)
			}
		}
	}
}

// NIST SP 800-38A F.5.1 CTR-AES128 vector (first block).
func TestCTRVector(t *testing.T) {
	c, _ := aes.NewAES(mustHex("2b7e151628aed2a6abf7158809cf4f3c"))
	nonce := mustHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
	plain := mustHex("6bc1bee22e409f96e93d7e117393172a")
	want := mustHex("874d6191b620e3261bef6864990db6ce")
	got, err := ctr(c, nonce, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("CTR = %x, want %x", got, want)
	}
}

func TestCTRIsInvolution(t *testing.T) {
	c, _ := aes.NewAES(make([]byte, 16))
	nonce := make([]byte, 16)
	data := []byte("short")
	ct, _ := ctr(c, nonce, data)
	pt, _ := ctr(c, nonce, ct)
	if !bytes.Equal(pt, data) {
		t.Errorf("CTR twice = %q, want %q", pt, data)
	}
}
