package telemetry

import (
	"sync/atomic"
	"time"
)

// Clock is the time axis instruments stamp against: Now returns
// nanoseconds since the clock's epoch. Two implementations cover the
// repo's needs — NewWallClock for real time (netsim latencies are real
// sleeps, so wall time doubles as simulated time) and ManualClock for
// fully deterministic axes (test-driven netsim partitions, replayed
// Rabbit cycle counts). Trace.SetClock installs one on a trace.
type Clock interface {
	Now() uint64
}

// wallClock reads wall time relative to its creation.
type wallClock struct {
	epoch time.Time
}

// NewWallClock returns a Clock reading wall-clock nanoseconds since
// the call.
func NewWallClock() Clock {
	return &wallClock{epoch: time.Now()}
}

func (c *wallClock) Now() uint64 { return uint64(time.Since(c.epoch)) }

// ManualClock is an explicitly advanced Clock for deterministic runs:
// time moves only when the owner says so, so two replays of the same
// schedule stamp identical times. The zero value reads zero and is
// ready to use. Safe for concurrent use.
type ManualClock struct {
	v atomic.Uint64
}

// NewManualClock returns a ManualClock reading start.
func NewManualClock(start uint64) *ManualClock {
	c := &ManualClock{}
	c.v.Store(start)
	return c
}

// Now returns the current manual reading.
func (c *ManualClock) Now() uint64 { return c.v.Load() }

// Set moves the clock to t (monotonicity is the caller's contract).
func (c *ManualClock) Set(t uint64) { c.v.Store(t) }

// Advance moves the clock forward by d nanoseconds and returns the new
// reading.
func (c *ManualClock) Advance(d uint64) uint64 { return c.v.Add(d) }
