package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Attr is one key/value pair on a trace event. Values are kept as
// interface{} so emitters can attach ints, strings, durations, etc.;
// sinks render them with %v / JSON.
type Attr struct {
	Key   string
	Value any
}

// Event is one structured trace record. T is the simulated-time stamp
// in nanoseconds on the trace's time axis (see Trace). Layer names the
// emitting subsystem ("netsim", "tcp", "issl", "redirector", ...) and
// Name the event kind within it ("fault.loss", "retransmit",
// "hs.phase", ...).
type Event struct {
	T     uint64
	Layer string
	Name  string
	Attrs []Attr
}

// Trace is a bounded ring buffer of Events. When full, Emit evicts the
// oldest event — it never blocks and never grows, so it is safe to
// leave attached in soak tests. All methods are safe for concurrent
// use and nil-safe: a nil *Trace absorbs Emit calls, so instrumented
// code never branches on whether tracing is wired up.
//
// Time axis: every event is stamped by the trace's Clock, nanoseconds
// since an epoch. The default clock is wall time since NewTrace, which
// under netsim (whose latencies are real sleeps) doubles as simulated
// time; SetClock installs a different one — e.g. a ManualClock driven
// by the Rabbit CPU cycle counter scaled to ns — so hardware-level and
// network-level events share one axis.
type Trace struct {
	mu    sync.Mutex
	clock Clock
	buf   []Event
	start int // index of oldest event
	n     int // number of valid events
}

// NewTrace creates a trace holding at most capacity events (minimum 1).
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{
		clock: NewWallClock(),
		buf:   make([]Event, 0, capacity),
	}
}

// SetClock installs c as the trace's time source. Call before
// emitting; events already recorded keep their old stamps. A nil
// clock is ignored.
func (t *Trace) SetClock(c Clock) {
	if t == nil || c == nil {
		return
	}
	t.mu.Lock()
	t.clock = c
	t.mu.Unlock()
}

// Now returns the current reading of the trace clock, so callers can
// measure durations on the same axis events are stamped with. A nil
// trace reads zero.
func (t *Trace) Now() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	v := t.clock.Now()
	t.mu.Unlock()
	return v
}

// Emit records one event, evicting the oldest if the ring is full.
// kv is alternating key, value pairs; a trailing odd key gets a nil
// value. Safe on a nil receiver.
func (t *Trace) Emit(layer, name string, kv ...any) {
	if t == nil {
		return
	}
	var attrs []Attr
	if len(kv) > 0 {
		attrs = make([]Attr, 0, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			key, _ := kv[i].(string)
			var val any
			if i+1 < len(kv) {
				val = kv[i+1]
			}
			attrs = append(attrs, Attr{Key: key, Value: val})
		}
	}
	t.mu.Lock()
	ev := Event{T: t.clock.Now(), Layer: layer, Name: name, Attrs: attrs}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.start] = ev
		t.start = (t.start + 1) % len(t.buf)
	}
	if t.n < cap(t.buf) {
		t.n++
	}
	t.mu.Unlock()
}

// Events returns the buffered events oldest-first.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(t.start+i)%len(t.buf)])
	}
	return out
}

// WriteJSONL renders events oldest-first as one JSON object per line:
// {"t":<ns>,"layer":...,"name":...,<attr keys in emit order>}.
// Attribute order is preserved, so the output is deterministic for a
// deterministic run.
func (t *Trace) WriteJSONL(w io.Writer) error {
	for _, ev := range t.Events() {
		if _, err := fmt.Fprintf(w, `{"t":%d,"layer":%s,"name":%s`,
			ev.T, jsonString(ev.Layer), jsonString(ev.Name)); err != nil {
			return err
		}
		for _, a := range ev.Attrs {
			vb, err := json.Marshal(a.Value)
			if err != nil {
				vb = []byte(jsonString(fmt.Sprint(a.Value)))
			}
			if _, err := fmt.Fprintf(w, ",%s:%s", jsonString(a.Key), vb); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}\n"); err != nil {
			return err
		}
	}
	return nil
}

// jsonString quotes s as a JSON string.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `""`
	}
	return string(b)
}
