package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	c.Add(5) // must not panic
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge Value = %d, want 0", got)
	}
	var h *Histogram
	h.Observe(9)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("nil histogram not zero")
	}
	var tr *Trace
	tr.Emit("l", "n", "k", 1)
	if len(tr.Events()) != 0 || tr.Now() != 0 || tr.Events() != nil {
		t.Fatalf("nil trace not inert")
	}
}

func TestRegistryStablePointers(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Fatalf("Counter(a) returned distinct pointers")
	}
	c1.Add(2)
	c2.Inc()
	if got := r.Counter("a").Value(); got != 3 {
		t.Fatalf("counter a = %d, want 3", got)
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatalf("Gauge(g) returned distinct pointers")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatalf("Histogram(h) returned distinct pointers")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestHistogramSumMean(t *testing.T) {
	h := &Histogram{}
	for _, v := range []uint64{10, 20, 30} {
		h.Observe(v)
	}
	if h.Sum() != 60 {
		t.Fatalf("Sum = %d, want 60", h.Sum())
	}
	if h.Mean() != 20 {
		t.Fatalf("Mean = %g, want 20", h.Mean())
	}
}

// TestTraceWraparound pins the ring contract: events beyond capacity
// evict the oldest, Emit never blocks, and Events stays oldest-first.
func TestTraceWraparound(t *testing.T) {
	tr := NewTrace(4)
	tr.SetClock(NewManualClock(42))
	for i := 0; i < 10; i++ {
		tr.Emit("test", "ev", "i", i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	for j, ev := range evs {
		want := 6 + j // oldest surviving is i=6
		if got := ev.Attrs[0].Value.(int); got != want {
			t.Fatalf("event %d has i=%d, want %d", j, got, want)
		}
		if ev.T != 42 {
			t.Fatalf("event %d T=%d, want 42", j, ev.T)
		}
	}
}

func TestTraceClockMonotoneOrder(t *testing.T) {
	tr := NewTrace(16)
	clk := NewManualClock(0)
	tr.SetClock(clk)
	clk.Advance(100)
	tr.Emit("a", "first")
	clk.Advance(100)
	mid := tr.Now()
	clk.Advance(100)
	tr.Emit("a", "second")
	evs := tr.Events()
	if len(evs) != 2 || evs[0].T >= mid || evs[1].T <= mid {
		t.Fatalf("timestamps not ordered around Now(): %d, %d, mid %d",
			evs[0].T, evs[1].T, mid)
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	tr := NewTrace(8)
	tr.SetClock(NewManualClock(7))
	tr.Emit("issl", "hs.phase", "phase", "hello", "dur", uint64(123))
	tr.Emit("tcp", `quote"layer`, "n", 1.5)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q not valid JSON: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	if lines[0]["layer"] != "issl" || lines[0]["phase"] != "hello" || lines[0]["dur"] != float64(123) {
		t.Fatalf("first line wrong: %v", lines[0])
	}
	if lines[1]["name"] != `quote"layer` {
		t.Fatalf("JSON escaping broken: %v", lines[1])
	}
}

func TestTraceConcurrentEmit(t *testing.T) {
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tr.Emit("t", "e", "id", id, "j", j)
			}
		}(i)
	}
	wg.Wait()
	if n := len(tr.Events()); n != 64 {
		t.Fatalf("buffered %d events, want 64", n)
	}
}
