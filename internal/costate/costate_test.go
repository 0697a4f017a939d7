package costate

import (
	"testing"
	"time"
)

func TestRoundRobinOrder(t *testing.T) {
	s := New()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(co *Co) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				co.Yield()
			}
		})
	}
	s.Run()
	want := "abcabcabc"
	got := ""
	for _, n := range order {
		got += n
	}
	if got != want {
		t.Errorf("schedule order = %s, want %s", got, want)
	}
}

func TestSingleThreadOfControl(t *testing.T) {
	s := New()
	running := 0
	maxRunning := 0
	for i := 0; i < 5; i++ {
		s.Spawn("t", func(co *Co) {
			for j := 0; j < 10; j++ {
				running++
				if running > maxRunning {
					maxRunning = running
				}
				// If another costatement ran concurrently, running
				// would exceed 1 here (this is unsynchronized access,
				// which is exactly the point: DC code relies on
				// cooperative scheduling for atomicity).
				running--
				co.Yield()
			}
		})
	}
	s.Run()
	if maxRunning != 1 {
		t.Errorf("max concurrent costatements = %d, want 1", maxRunning)
	}
}

func TestWaitFor(t *testing.T) {
	s := New()
	flag := false
	reached := false
	s.Spawn("waiter", func(co *Co) {
		co.WaitFor(func() bool { return flag })
		reached = true
	})
	s.Spawn("setter", func(co *Co) {
		for i := 0; i < 5; i++ {
			co.Yield()
		}
		flag = true
	})
	s.Run()
	if !reached {
		t.Error("waitfor never unblocked")
	}
}

// TestWaitForTimeout: Dynamic C bounds a wait by or-ing its condition
// with a delay, `waitfor(cond || DelayMs(50))`; when the condition
// never holds, the delay ends the wait.
func TestWaitForTimeout(t *testing.T) {
	s := New()
	start := time.Now()
	var ended bool
	s.Spawn("w", func(co *Co) {
		never := func() bool { return false }
		timeout := DelayMs(50)
		co.WaitFor(func() bool { return never() || timeout() })
		ended = true
	})
	s.Run()
	if !ended {
		t.Fatal("bounded wait never ended")
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("bounded wait ended after %v, before its 50 ms delay", d)
	}
}

func TestDelayMs(t *testing.T) {
	s := New()
	start := time.Now()
	s.Spawn("d", func(co *Co) {
		co.WaitFor(DelayMs(60))
	})
	s.Run()
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("DelayMs(60) completed after %v", d)
	}
}

func TestLiveCount(t *testing.T) {
	s := New()
	s.Spawn("short", func(co *Co) {})
	s.Spawn("long", func(co *Co) {
		for i := 0; i < 10; i++ {
			co.Yield()
		}
	})
	if s.Live() != 2 {
		t.Errorf("Live before run = %d", s.Live())
	}
	s.Tick()
	if s.Live() != 1 {
		t.Errorf("Live after one tick = %d", s.Live())
	}
	s.Run()
	if s.Live() != 0 {
		t.Errorf("Live after run = %d", s.Live())
	}
}

func TestKill(t *testing.T) {
	s := New()
	iterations := 0
	co := s.Spawn("victim", func(co *Co) {
		for {
			iterations++
			co.Yield()
		}
	})
	s.Tick()
	s.Tick()
	s.Kill(co)
	done := make(chan struct{})
	go func() {
		s.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("killed costatement did not unwind")
	}
	if iterations != 2 {
		t.Errorf("iterations = %d, want 2", iterations)
	}
}

func TestKillAll(t *testing.T) {
	s := New()
	for i := 0; i < 4; i++ {
		s.Spawn("loop", func(co *Co) {
			for {
				co.Yield()
			}
		})
	}
	s.Tick()
	done := make(chan struct{})
	go func() {
		s.KillAll()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("KillAll hung")
	}
	if s.Live() != 0 {
		t.Errorf("Live after KillAll = %d", s.Live())
	}
}

func TestRunForDeadline(t *testing.T) {
	s := New()
	s.Spawn("forever", func(co *Co) {
		for {
			co.Yield()
		}
	})
	finished := s.RunFor(50 * time.Millisecond)
	if finished {
		t.Error("RunFor claimed completion of an infinite costatement")
	}
	s.KillAll()
}

func TestCofunc(t *testing.T) {
	s := New()
	// A cofunction that yields internally while computing.
	double := Cofunc[int, int](func(co *Co, x int) int {
		co.Yield()
		return x * 2
	})
	var got int
	s.Spawn("caller", func(co *Co) {
		got = double.Call(co, 21)
	})
	s.Spawn("other", func(co *Co) { co.Yield() })
	s.Run()
	if got != 42 {
		t.Errorf("cofunction result = %d", got)
	}
}

// The paper's Fig. 3 shape: N connection-handler costatements plus a
// driver. Verify handler slots interleave with the driver.
func TestFig3Shape(t *testing.T) {
	s := New()
	served := 0
	requests := []bool{false, false, false}
	for i := range requests {
		i := i
		s.Spawn("handler", func(co *Co) {
			co.WaitFor(func() bool { return requests[i] })
			served++
		})
	}
	tick := 0
	s.Spawn("driver", func(co *Co) {
		for served < 3 {
			// The driver "tcp_tick" eventually raises each request.
			if tick < len(requests) {
				requests[tick] = true
				tick++
			}
			co.Yield()
		}
	})
	if !s.RunFor(2 * time.Second) {
		t.Fatal("Fig. 3 scheduler did not converge")
	}
	if served != 3 {
		t.Errorf("served = %d, want 3", served)
	}
}

// RunFor ticks until every costatement finishes or the duration
// elapses; it reports whether all finished.
func (s *Scheduler) RunFor(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for s.Tick() {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}
