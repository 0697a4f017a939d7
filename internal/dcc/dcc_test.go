package dcc

import (
	"errors"
	"os"
	"strings"
	"testing"
)

// compileRun compiles src with opts, runs it, and returns the machine.
func compileRun(t *testing.T, src string, opt Options) *Machine {
	t.Helper()
	comp, err := Compile(src, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := NewMachine(comp)
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("run: %v (%s)", err, m.CPU)
	}
	return m
}

// expectInt compiles+runs and checks global `out`.
func expectInt(t *testing.T, src string, want int, opt Options) {
	t.Helper()
	m := compileRun(t, src, opt)
	addr, ok := m.comp.Symbol("out")
	if !ok {
		t.Fatal("no global out")
	}
	got := m.CPU.Mem.Read16(addr)
	if int16(got) != int16(want) {
		t.Errorf("out = %d, want %d\nsource:\n%s", int16(got), want, src)
	}
}

// allOptionSets exercises every knob combination on semantics tests:
// optimizations must never change results.
var allOptionSets = []Options{
	{Debug: true},
	{},
	{Unroll: true},
	{RootData: true},
	{Peephole: true},
	{Unroll: true, RootData: true, Peephole: true},
	{Debug: true, Unroll: true, RootData: true, Peephole: true},
}

func expectIntAll(t *testing.T, src string, want int) {
	t.Helper()
	for _, opt := range allOptionSets {
		expectInt(t, src, want, opt)
	}
}

func TestArithmetic(t *testing.T) {
	expectIntAll(t, `int out; void main() { out = 2 + 3 * 4 - 1; }`, 13)
	expectIntAll(t, `int out; void main() { out = (2 + 3) * 4; }`, 20)
	expectIntAll(t, `int out; void main() { out = 100 / 7; }`, 14)
	expectIntAll(t, `int out; void main() { out = 100 % 7; }`, 2)
	expectIntAll(t, `int out; void main() { out = -5 * 3; }`, -15)
	expectIntAll(t, `int out; void main() { out = -17 / 5; }`, -3)
	expectIntAll(t, `int out; void main() { out = -17 % 5; }`, -2)
	expectIntAll(t, `int out; void main() { out = 17 % -5; }`, 2)
}

func TestBitwiseAndShifts(t *testing.T) {
	expectIntAll(t, `int out; void main() { out = 0xF0 & 0x3C; }`, 0x30)
	expectIntAll(t, `int out; void main() { out = 0xF0 | 0x0F; }`, 0xFF)
	expectIntAll(t, `int out; void main() { out = 0xFF ^ 0x0F; }`, 0xF0)
	expectIntAll(t, `int out; void main() { out = 1 << 10; }`, 1024)
	expectIntAll(t, `int out; void main() { out = 1024 >> 3; }`, 128)
	expectIntAll(t, `int out; int n; void main() { n = 4; out = 3 << n; }`, 48)
	expectIntAll(t, `int out; void main() { out = ~0x0F & 0xFF; }`, 0xF0)
}

func TestComparisons(t *testing.T) {
	expectIntAll(t, `int out; void main() { out = 3 < 5; }`, 1)
	expectIntAll(t, `int out; void main() { out = 5 < 3; }`, 0)
	expectIntAll(t, `int out; void main() { out = -1 < 1; }`, 1)
	expectIntAll(t, `int out; void main() { out = -30000 < 30000; }`, 1)
	expectIntAll(t, `int out; void main() { out = 5 <= 5; }`, 1)
	expectIntAll(t, `int out; void main() { out = 5 >= 6; }`, 0)
	expectIntAll(t, `int out; void main() { out = 7 == 7; }`, 1)
	expectIntAll(t, `int out; void main() { out = 7 != 7; }`, 0)
	expectIntAll(t, `int out; void main() { out = -2 > -3; }`, 1)
}

func TestLogicalOps(t *testing.T) {
	expectIntAll(t, `int out; void main() { out = 1 && 2; }`, 1)
	expectIntAll(t, `int out; void main() { out = 1 && 0; }`, 0)
	expectIntAll(t, `int out; void main() { out = 0 || 3; }`, 1)
	expectIntAll(t, `int out; void main() { out = 0 || 0; }`, 0)
	expectIntAll(t, `int out; void main() { out = !5; }`, 0)
	expectIntAll(t, `int out; void main() { out = !0; }`, 1)
	// Short-circuit: the second operand must not execute.
	expectIntAll(t, `
int out; int side;
int bump() { side = side + 1; return 1; }
void main() { side = 0; out = 0 && bump(); out = out + side; }`, 0)
}

func TestControlFlow(t *testing.T) {
	expectIntAll(t, `
int out;
void main() {
    int i;
    out = 0;
    for (i = 0; i < 10; i = i + 1) out = out + i;
}`, 45)
	expectIntAll(t, `
int out;
void main() {
    int i;
    out = 0; i = 0;
    while (i < 5) { out = out + 2; i = i + 1; }
}`, 10)
	expectIntAll(t, `
int out;
void main() {
    if (3 > 2) out = 1; else out = 2;
}`, 1)
	expectIntAll(t, `
int out;
void main() {
    if (2 > 3) out = 1; else out = 2;
}`, 2)
	expectIntAll(t, `
int out;
void main() {
    int i;
    out = 0;
    for (i = 0; i < 100; i = i + 1) {
        if (i == 5) break;
        out = out + 1;
    }
}`, 5)
	expectIntAll(t, `
int out;
void main() {
    int i;
    out = 0;
    for (i = 0; i < 10; i = i + 1) {
        if (i % 2) continue;
        out = out + 1;
    }
}`, 5)
}

func TestFunctionsAndParams(t *testing.T) {
	expectIntAll(t, `
int out;
int add3(int a, int b, int c) { return a + b + c; }
void main() { out = add3(1, 2, 3); }`, 6)
	expectIntAll(t, `
int out;
int square(int x) { return x * x; }
int sumsq(int a, int b) { return square(a) + square(b); }
void main() { out = sumsq(3, 4); }`, 25)
	expectIntAll(t, `
int out;
char half(char x) { return x >> 1; }
void main() { out = half(200); }`, 100)
}

func TestCharSemantics(t *testing.T) {
	// char is unsigned 8-bit in storage.
	expectIntAll(t, `
int out; char c;
void main() { c = 200; out = c; }`, 200)
	expectIntAll(t, `
int out; char c;
void main() { c = 0x1FF; out = c; }`, 0xFF) // truncation on store
}

func TestArrays(t *testing.T) {
	expectIntAll(t, `
int out;
char buf[10];
void main() {
    int i;
    for (i = 0; i < 10; i = i + 1) buf[i] = i * 3;
    out = buf[7];
}`, 21)
	expectIntAll(t, `
int out;
int words[5];
void main() {
    words[0] = 1000;
    words[4] = 2000;
    out = words[0] + words[4];
}`, 3000)
	expectIntAll(t, `
int out;
char tab[4] = {10, 20, 30, 40};
void main() { out = tab[2]; }`, 30)
	expectIntAll(t, `
int out;
int itab[3] = {1000, -2, 3};
void main() { out = itab[0] + itab[1]; }`, 998)
}

func TestCompoundAssignment(t *testing.T) {
	expectIntAll(t, `int out; void main() { out = 10; out += 5; }`, 15)
	expectIntAll(t, `int out; void main() { out = 10; out -= 3; }`, 7)
	expectIntAll(t, `int out; void main() { out = 0xFF; out ^= 0x0F; }`, 0xF0)
	expectIntAll(t, `int out; void main() { out = 6; out *= 7; }`, 42)
	expectIntAll(t, `
int out; char b[3];
void main() { b[1] = 5; b[1] ^= 0xFF; out = b[1]; }`, 0xFA)
}

func TestStaticLocalsPersist(t *testing.T) {
	// The Dynamic C gotcha: locals are static by default, so the
	// counter persists across calls.
	expectIntAll(t, `
int out;
int counter() {
    int n;
    n = n + 1;
    return n;
}
void main() {
    counter(); counter(); counter();
    out = counter();
}`, 4)
}

func TestRecursionRejected(t *testing.T) {
	_, err := Compile(`
int out;
int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
void main() { out = fact(5); }`, Options{})
	if !errors.Is(err, ErrSemantic) {
		t.Errorf("recursion error = %v", err)
	}
}

func TestMutualRecursionRejected(t *testing.T) {
	_, err := Compile(`
int a(int n) { return b(n); }
int b(int n) { return a(n); }
void main() { a(1); }`, Options{})
	if !errors.Is(err, ErrSemantic) {
		t.Errorf("mutual recursion error = %v", err)
	}
}

func TestAutoRejected(t *testing.T) {
	_, err := Compile(`void main() { auto int x; }`, Options{})
	if err == nil {
		t.Error("auto accepted")
	}
}

func TestSemanticErrors(t *testing.T) {
	bad := []string{
		`void main() { undefined = 1; }`,
		`void main() { nofunc(); }`,
		`int f(int a) { return a; } void main() { f(1, 2); }`,
		`char a[4]; void main() { a = 1; }`,
		`int x; void main() { x[0] = 1; }`,
		`int x; int x; void main() {}`,
		`void main() { break; }`,
		`int out;`, // no main
	}
	for _, src := range bad {
		if _, err := Compile(src, Options{}); err == nil {
			t.Errorf("compiled without error:\n%s", src)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		`void main() { if }`,
		`void main() { 1 + ; }`,
		`void main( {}`,
		`int a[ ]; void main() {}`,
		`void main() { return 1 }`,
		`/* unterminated`,
	}
	for _, src := range bad {
		if _, err := Compile(src, Options{}); err == nil {
			t.Errorf("parsed without error:\n%s", src)
		}
	}
}

func TestXmemVsRootPlacement(t *testing.T) {
	src := `
int out;
char buf[16];
void main() {
    int i;
    for (i = 0; i < 16; i = i + 1) buf[i] = i;
    out = buf[9];
}`
	// Same answer either way, different placement.
	cXmem, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cRoot, err := Compile(src, Options{RootData: true})
	if err != nil {
		t.Fatal(err)
	}
	addrX, _ := cXmem.Symbol("buf")
	addrR, _ := cRoot.Symbol("buf")
	if addrX < 0xE000 {
		t.Errorf("xmem array at %04x, want >= E000", addrX)
	}
	if addrR >= 0xE000 {
		t.Errorf("root array at %04x, want < E000", addrR)
	}
	expectInt(t, src, 9, Options{})
	expectInt(t, src, 9, Options{RootData: true})
}

func TestExplicitPlacementKeywords(t *testing.T) {
	src := `
int out;
root char a[4];
xmem char b[4];
void main() { a[0] = 1; b[0] = 2; out = a[0] + b[0]; }`
	comp, err := Compile(src, Options{RootData: true})
	if err != nil {
		t.Fatal(err)
	}
	addrA, _ := comp.Symbol("a")
	addrB, _ := comp.Symbol("b")
	if addrA >= 0xE000 || addrB < 0xE000 {
		t.Errorf("explicit placement ignored: a=%04x b=%04x", addrA, addrB)
	}
	expectInt(t, src, 3, Options{RootData: true})
}

func TestOptimizationKnobsChangeCost(t *testing.T) {
	src := `
int out;
char buf[16];
void main() {
    int i; int r;
    int pass;
    out = 0;
    for (pass = 0; pass < 8; pass = pass + 1) {
        for (i = 0; i < 16; i = i + 1) buf[i] = i ^ pass;
        r = 0;
        for (i = 0; i < 16; i = i + 1) r = r + buf[i];
        out = r;
    }
}`
	cycles := func(opt Options) uint64 {
		comp, err := Compile(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine(comp)
		if err := m.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		return m.CPU.Cycles
	}
	debug := cycles(Options{Debug: true})
	nodebug := cycles(Options{})
	opt := cycles(Options{Unroll: true, RootData: true, Peephole: true})
	if nodebug >= debug {
		t.Errorf("disabling debug did not help: %d vs %d", nodebug, debug)
	}
	if opt >= nodebug {
		t.Errorf("full optimization did not help: %d vs %d", opt, nodebug)
	}
	t.Logf("cycles: debug=%d nodebug=%d optimized=%d", debug, nodebug, opt)
}

func TestUnrollPreservesCounterValue(t *testing.T) {
	expectIntAll(t, `
int out;
void main() {
    int i;
    for (i = 0; i < 7; i = i + 1) { }
    out = i;
}`, 7)
}

func TestGeneratedAsmMentionsKnobs(t *testing.T) {
	comp, err := Compile(`void main() {}`, Options{Unroll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(comp.Asm, "unroll=true") {
		t.Error("asm header missing options")
	}
	if comp.CodeSize() <= 0 {
		t.Error("code size not positive")
	}
}

func TestDeepExpressionStack(t *testing.T) {
	expectIntAll(t, `
int out;
void main() {
    out = ((((1 + 2) * (3 + 4)) - ((5 - 3) * (2 + 2))) << 2) / 4;
}`, 13)
}

func TestIncDecOperators(t *testing.T) {
	expectIntAll(t, `int out; void main() { out = 5; out++; }`, 6)
	expectIntAll(t, `int out; void main() { out = 5; out--; }`, 4)
	expectIntAll(t, `int out; void main() { out = 5; ++out; }`, 6)
	expectIntAll(t, `int out; int x; void main() { x = 5; out = x++; out = out * 100 + x; }`, 506)
	expectIntAll(t, `int out; int x; void main() { x = 5; out = ++x; out = out * 100 + x; }`, 606)
	expectIntAll(t, `int out; int x; void main() { x = 5; out = x--; out = out * 100 + x; }`, 504)
	expectIntAll(t, `
int out; char b[4];
void main() { b[2] = 9; out = b[2]++; out = out * 100 + b[2]; }`, 910)
	expectIntAll(t, `
int out; int w[4];
void main() { w[1] = 1000; ++w[1]; out = w[1]; }`, 1001)
	expectIntAll(t, `
int out;
void main() {
    int i;
    out = 0;
    for (i = 0; i < 10; i++) out += 2;
}`, 20)
	// Loops written with i++ still unroll (semantics preserved).
	expectIntAll(t, `
int out;
void main() {
    int i;
    for (i = 0; i < 6; i++) { }
    out = i;
}`, 6)
}

func TestIncDecErrors(t *testing.T) {
	for _, src := range []string{
		`void main() { 5++; }`,
		`void main() { ++7; }`,
		`char a[3]; void main() { a++; }`,
	} {
		if _, err := Compile(src, Options{}); err == nil {
			t.Errorf("compiled without error: %s", src)
		}
	}
}

func TestDoWhile(t *testing.T) {
	expectIntAll(t, `
int out;
void main() {
    int i;
    out = 0; i = 0;
    do { out += 3; i++; } while (i < 4);
}`, 12)
	// Body runs at least once even when the condition is false.
	expectIntAll(t, `
int out;
void main() {
    out = 0;
    do { out = 99; } while (0);
}`, 99)
	expectIntAll(t, `
int out;
void main() {
    int i;
    out = 0; i = 0;
    do {
        i++;
        if (i == 3) continue;
        if (i == 6) break;
        out += i;
    } while (i < 100);
}`, 1+2+4+5)
}

func TestTernary(t *testing.T) {
	expectIntAll(t, `int out; void main() { out = 1 ? 10 : 20; }`, 10)
	expectIntAll(t, `int out; void main() { out = 0 ? 10 : 20; }`, 20)
	expectIntAll(t, `
int out;
int max(int a, int b) { return a > b ? a : b; }
void main() { out = max(3, 7) + max(9, 2); }`, 16)
	// Nested, right-associative.
	expectIntAll(t, `
int out;
void main() { int x; x = 2; out = x == 1 ? 100 : x == 2 ? 200 : 300; }`, 200)
	// Only the taken arm's side effects run.
	expectIntAll(t, `
int out; int side;
int bump() { side++; return 1; }
void main() { side = 0; out = 0 ? bump() : 5; out = out * 10 + side; }`, 50)
}

func TestDoWhileSyntaxErrors(t *testing.T) {
	for _, src := range []string{
		`void main() { do { } }`,           // missing while
		`void main() { do { } while (1) }`, // missing semicolon
		`void main() { out = 1 ? 2; }`,     // missing colon
	} {
		if _, err := Compile(src, Options{}); err == nil {
			t.Errorf("parsed without error: %s", src)
		}
	}
}

func TestStringInitializers(t *testing.T) {
	expectIntAll(t, `
int out;
char msg[8] = "hi!";
void main() { out = msg[0] + msg[2]; }`, 'h'+'!')
	// Implied length includes the NUL.
	expectIntAll(t, `
int out;
char msg[] = "abc";
void main() { out = msg[3]; }`, 0)
	// Walk a string to its terminator.
	expectIntAll(t, `
int out;
char msg[] = "count me";
void main() {
    int i;
    i = 0;
    while (msg[i] != 0) i++;
    out = i;
}`, 8)
	if _, err := Compile(`char m[2] = "long"; void main() {}`, Options{}); err == nil {
		t.Error("oversized string accepted")
	}
	if _, err := Compile(`int m[4] = "no"; void main() {}`, Options{}); err == nil {
		t.Error("string into int array accepted")
	}
	if _, err := Compile(`char m[] = "unterminated`+"\n"+`"; void main() {}`, Options{}); err == nil {
		t.Error("unterminated string accepted")
	}
}

// TestSampleCRC8 compiles and runs the testdata CRC-8 program; 0xF4 is
// the standard check value for "123456789".
func TestSampleCRC8(t *testing.T) {
	src, err := os.ReadFile("testdata/crc8.dc")
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range allOptionSets {
		expectInt(t, string(src), 0xF4, opt)
	}
}
