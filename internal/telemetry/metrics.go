// Package telemetry is the repo's dependency-free observability layer:
// a metrics registry (atomic counters, gauges, HDR histograms)
// and a bounded ring-buffer trace of structured events stamped on one
// simulated-time axis (see trace.go). Every layer of the reproduction —
// the netsim wire, the tcpip stack, the issl secure layer, the
// redirector service, and the Rabbit cycle profiler — reports here, so
// an experiment can be *explained* (where the cycles, retransmissions
// and faults went) and not merely run.
//
// All metric handles are nil-safe: a nil *Counter (from a nil
// *Registry) accepts Add calls and reads zero, so instrumented code
// never branches on whether telemetry is wired up.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter atomically. A nil counter reads zero.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value reads the gauge atomically. A nil gauge reads zero.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry names and owns metrics. Get-or-create accessors hand out
// stable pointers, so hot paths resolve a metric once and then update
// it lock-free. A nil *Registry hands out nil metrics, which absorb
// updates silently — instrumentation needs no nil checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Its fixed ~30 KB is allocated here, once, so callers that resolve it
// at construction keep Observe allocation-free.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}
