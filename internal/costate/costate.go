// Package costate reproduces Dynamic C's cooperative multitasking
// model (§4.2 of the paper): costatements with yield and
// waitfor(expr), scheduled round-robin by a single thread of control.
// The ported TLS server uses exactly this structure — one costatement
// per connection slot plus one driving the TCP stack (Fig. 3) — and
// the fixed number of spawned costatements is what caps simultaneous
// connections at three.
//
// Implementation: each costatement runs on its own goroutine, but a
// handoff protocol guarantees only one runs at any instant and control
// returns to the scheduler exactly at Yield points — the same
// observable semantics as Dynamic C's compiler-generated resume
// points. The preemptive alternatives (slice statements, µC/OS-II) are
// not modeled; the paper's port did not use them either ("We did not
// use µC/OS-II").
package costate

import (
	"errors"
	"fmt"
	"time"
)

// ErrKilled is the panic value used to unwind a killed costatement.
var ErrKilled = errors.New("costate: killed")

// Co is the handle a costatement body uses to give up control.
type Co struct {
	resume chan struct{}
	yield  chan struct{}
	killed bool
}

// Yield passes control to the next costatement (the `yield` statement).
// When control returns, execution resumes after the Yield call.
func (c *Co) Yield() {
	c.yield <- struct{}{}
	<-c.resume
	if c.killed {
		panic(ErrKilled)
	}
}

// WaitFor yields until pred() holds (`waitfor(expr)`, which Dynamic C
// defines as `while (!expr) yield;`).
func (c *Co) WaitFor(pred func() bool) {
	for !pred() {
		c.Yield()
	}
}

// DelayMs returns a predicate that becomes true n milliseconds from
// now — the idiom `waitfor(DelayMs(n))` used for pacing loops.
func DelayMs(n int) func() bool {
	deadline := time.Now().Add(time.Duration(n) * time.Millisecond)
	return func() bool { return time.Now().After(deadline) }
}

// task is the scheduler's view of one costatement.
type task struct {
	co   *Co
	done bool
}

// Scheduler owns a set of costatements and runs them round-robin.
// It is single-threaded: methods must be called from one goroutine.
type Scheduler struct {
	tasks []*task
}

// New creates an empty scheduler.
func New() *Scheduler { return &Scheduler{} }

// Spawn registers a costatement. The body does not run until the
// scheduler's next Tick. Bodies communicate only through Yield/WaitFor
// on the provided Co.
func (s *Scheduler) Spawn(name string, body func(*Co)) *Co {
	co := &Co{
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	t := &task{co: co}
	s.tasks = append(s.tasks, t)
	go func() {
		defer func() {
			if r := recover(); r != nil && r != ErrKilled {
				// Re-panic real bugs on the scheduler's goroutine is not
				// possible; surface loudly instead.
				panic(fmt.Sprintf("costate %q: %v", name, r))
			}
			close(co.yield)
		}()
		<-co.resume
		if co.killed {
			panic(ErrKilled)
		}
		body(co)
	}()
	return co
}

// Live returns the number of costatements that have not finished.
func (s *Scheduler) Live() int {
	n := 0
	for _, t := range s.tasks {
		if !t.done {
			n++
		}
	}
	return n
}

// Tick gives every live costatement one scheduling slot, in spawn
// order. It reports whether any costatement remains live.
func (s *Scheduler) Tick() bool {
	any := false
	for _, t := range s.tasks {
		if t.done {
			continue
		}
		t.co.resume <- struct{}{}
		if _, ok := <-t.co.yield; !ok {
			t.done = true
			continue
		}
		any = true
	}
	if !any {
		// A task may have finished during this very tick.
		return s.Live() > 0
	}
	return true
}

// Run ticks until every costatement finishes.
func (s *Scheduler) Run() {
	for s.Tick() {
	}
}

// Kill unwinds a costatement at its next scheduling slot.
func (s *Scheduler) Kill(co *Co) {
	co.killed = true
}

// KillAll unwinds every live costatement and runs them to completion.
func (s *Scheduler) KillAll() {
	for _, t := range s.tasks {
		if !t.done {
			t.co.killed = true
		}
	}
	s.Run()
}

// Cofunc mirrors Dynamic C's cofunctions: a named, yield-capable
// routine callable from costatement bodies. In Go a plain function
// taking *Co already has these semantics; the type exists so call
// sites read like the original API.
type Cofunc[A, R any] func(co *Co, arg A) R

// Call invokes the cofunction on the caller's costatement.
func (f Cofunc[A, R]) Call(co *Co, arg A) R { return f(co, arg) }
