package core

import "testing"

func TestRunE1Shape(t *testing.T) {
	r, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Factor < 10 || r.Factor > 60 {
		t.Errorf("E1 factor = %.1f, want order-of-magnitude (paper: 15-20)", r.Factor)
	}
	if r.AsmKBps <= r.CKBps {
		t.Error("assembly not faster in KB/s terms")
	}
	t.Logf("E1: C=%.0f cyc/blk (%.1f KB/s), asm=%.0f cyc/blk (%.1f KB/s), factor=%.1fx",
		r.CCyclesPerBlock, r.CKBps, r.AsmCyclesPerBlock, r.AsmKBps, r.Factor)
}

func TestRunE2Shape(t *testing.T) {
	rows, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(E2Configs) {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].GainVsBaseline != 0 {
		t.Error("baseline gain nonzero")
	}
	best := rows[len(rows)-1]
	if best.GainVsBaseline <= 0.05 || best.GainVsBaseline >= 0.60 {
		t.Errorf("total optimization gain = %.1f%%, paper reports ~20%% (modest)",
			best.GainVsBaseline*100)
	}
	for _, r := range rows {
		t.Logf("E2: %-22s %8.0f cyc/blk  %5d bytes  %+.1f%%",
			r.Name, r.CyclesPerBlock, r.CodeSize, r.GainVsBaseline*100)
	}
}

func TestRunE3Shape(t *testing.T) {
	r, err := RunE3()
	if err != nil {
		t.Fatal(err)
	}
	if r.AsmSize >= r.CSizeBase {
		t.Errorf("asm (%d) not smaller than C (%d)", r.AsmSize, r.CSizeBase)
	}
	// "Code size appeared uncorrelated to execution speed": the
	// fastest C build should not be the smallest.
	var fastest, smallest E3Row
	for i, row := range r.Rows {
		if i == 0 {
			continue // skip asm row for the C-only comparison
		}
		if fastest.Name == "" || row.CyclesPerBlock < fastest.CyclesPerBlock {
			fastest = row
		}
		if smallest.Name == "" || row.CodeSize < smallest.CodeSize {
			smallest = row
		}
	}
	if fastest.Name == smallest.Name {
		t.Logf("note: fastest C build is also smallest (%s); weaker decorrelation than paper", fastest.Name)
	}
	for _, row := range r.Rows {
		t.Logf("E3: %-25s %5d bytes  %8.0f cyc/blk", row.Name, row.CodeSize, row.CyclesPerBlock)
	}
}

func TestRunE4Shape(t *testing.T) {
	r, err := RunE4(256 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if r.Slowdown < 1.5 {
		t.Errorf("SSL slowdown = %.1fx; expected a clear cost (paper cites ~10x)", r.Slowdown)
	}
	t.Logf("E4: plain=%.0f KB/s, secure=%.0f KB/s, slowdown=%.1fx over %d bytes; hardware kernels %.0f KB/s, %.1fx",
		r.PlainKBps, r.SecureKBps, r.Slowdown, r.Bytes, r.HardwareKBps, r.HardwareSlowdown)
}

func TestRunE5Shape(t *testing.T) {
	r, err := RunE5()
	if err != nil {
		t.Fatal(err)
	}
	if r.ServedAtOnce != r.Slots {
		t.Errorf("served %d of %d slots", r.ServedAtOnce, r.Slots)
	}
	if !r.ExtraRefused {
		t.Error("connection beyond the slot count was not refused")
	}
	if !r.SlotReusable {
		t.Error("freed slot was not reusable")
	}
	t.Logf("E5: %d slots served, extra refused=%v, slot reuse=%v",
		r.ServedAtOnce, r.ExtraRefused, r.SlotReusable)
}

func TestKBPerSecond(t *testing.T) {
	// 30000 cycles/block at 30 MHz = 1000 blocks/s = 15.625 KB/s
	got := KBPerSecond(30000)
	if got < 15.6 || got > 15.7 {
		t.Errorf("KBPerSecond(30000) = %f", got)
	}
}
