package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestHDRNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("nil Histogram not inert")
	}
}

func TestHDRExactRegion(t *testing.T) {
	h := &Histogram{}
	for v := uint64(0); v < hdrSubBuckets; v++ {
		h.Observe(v)
	}
	// Below hdrSubBuckets every value has its own bucket: quantiles are
	// exact order statistics.
	if got := h.Quantile(0.5); got != 31 {
		t.Errorf("p50 of 0..63 = %d, want 31", got)
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	if h.Count() != hdrSubBuckets {
		t.Errorf("count = %d", h.Count())
	}
}

func TestHDRRelativeError(t *testing.T) {
	// Large values must come back within 1/2^hdrSubBits relative error.
	vals := []uint64{100, 1000, 12345, 1 << 20, 3<<30 + 7, 1 << 40}
	for _, v := range vals {
		h := &Histogram{}
		h.Observe(v)
		got := h.Quantile(0.5)
		relErr := math.Abs(float64(got)-float64(v)) / float64(v)
		if relErr > 1.0/hdrSubBuckets {
			t.Errorf("value %d read back as %d (rel err %.4f)", v, got, relErr)
		}
		if got < v {
			t.Errorf("bucket upper bound %d below observed %d", got, v)
		}
	}
}

func TestHDRIndexRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose [low, high] contains it;
	// sweep powers of two and neighbors across the range.
	for shift := 0; shift < 64; shift++ {
		for _, delta := range []int64{-1, 0, 1} {
			v := uint64(1)<<shift + uint64(delta)
			if delta < 0 && v > uint64(1)<<shift {
				continue // underflow at shift 0
			}
			i := hdrIndex(v)
			if i < 0 || i >= hdrBucketCount {
				t.Fatalf("index(%d) = %d out of range", v, i)
			}
			if high := hdrHigh(i); high < v {
				t.Errorf("value %d above its bucket high %d", v, high)
			}
		}
	}
}

func TestHDRQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1000 observations of 1ms, 10 of 100ms: p99 must stay at the fast
	// mode, p999 must see the slow tail.
	for i := 0; i < 1000; i++ {
		h.Observe(1_000_000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100_000_000)
	}
	p99 := h.Quantile(0.99)
	if p99 > 2_000_000 {
		t.Errorf("p99 = %d, want ~1ms", p99)
	}
	p999 := h.Quantile(0.999)
	if p999 < 50_000_000 {
		t.Errorf("p999 = %d, want ~100ms tail", p999)
	}
	if h.Quantile(1.0) != h.Max() {
		t.Errorf("p100 %d != max %d", h.Quantile(1.0), h.Max())
	}
}

func TestHDRDeterministicBuckets(t *testing.T) {
	mk := func() *Histogram {
		h := &Histogram{}
		v := uint64(1)
		for i := 0; i < 10000; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			h.Observe(v % 50_000_000)
		}
		return h
	}
	a, b := mk(), mk()
	if a.Count() != b.Count() || a.Max() != b.Max() || a.Mean() != b.Mean() {
		t.Error("same observation multiset produced different summaries")
	}
	// A quantile at every rank compares the two bucket layouts
	// observation by observation.
	for i := 1; i <= 10000; i++ {
		q := float64(i) / 10000
		if a.Quantile(q) != b.Quantile(q) {
			t.Errorf("q=%v: %d vs %d", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

func TestHDRConcurrentObserve(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Min() != 0 || h.Max() != workers*per-1 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestManualClock(t *testing.T) {
	c := NewManualClock(100)
	if c.Now() != 100 {
		t.Errorf("start = %d", c.Now())
	}
	if c.Advance(50) != 150 || c.Now() != 150 {
		t.Error("advance broken")
	}
	c.Set(1000)
	if c.Now() != 1000 {
		t.Error("set broken")
	}
	tr := NewTrace(4)
	tr.SetClock(c)
	tr.Emit("test", "ev")
	if ev := tr.Events(); len(ev) != 1 || ev[0].T != 1000 {
		t.Errorf("trace on manual clock: %+v", tr.Events())
	}
}
