package main

import (
	"math"
	"time"
)

// tally is what one client saw in one window.
type tally struct {
	lat                       []int64 // ns per request; a failed request is math.MaxInt64, so it misses any latency limit
	failed, bytes             int64   // bytes counts verified payload
	offered, resumed, records int64
}

func (t *tally) ok() int64 { return int64(len(t.lat)) - t.failed }

func (t *tally) record(start time.Time, bytes int) {
	t.lat = append(t.lat, int64(time.Since(start)))
	t.bytes += int64(bytes)
}

func (t *tally) recordFailure() {
	t.failed++
	t.lat = append(t.lat, math.MaxInt64)
}

// window is the merged result of all clients over one or more timed
// windows.
type window struct {
	tally
	wall time.Duration
}

func (win *window) merge(t *tally) {
	win.lat = append(win.lat, t.lat...)
	win.failed += t.failed
	win.bytes += t.bytes
	win.offered += t.offered
	win.resumed += t.resumed
	win.records += t.records
}

func (win *window) add(o *window) {
	win.merge(&o.tally)
	win.wall += o.wall
}

// forPeople is what the result line leaves out but a reader wants: the
// error rate (the line carries it as attempted and failed) and the
// latency tail. On a shared host the tail follows how often other load
// stalls the process for a few milliseconds, which moves p95 and p99
// by more than a regression bound from one run to the next, so they
// are printed but not gated.
func (win *window) forPeople() metrics {
	m := metrics{}
	m.put("error_rate", float64(win.failed)/float64(max(len(win.lat), 1)), "ratio")
	m.put("latency_p95_ms", quantileMs(win.lat, 0.95), "ms")
	m.put("latency_p99_ms", quantileMs(win.lat, 0.99), "ms")
	return m
}

func (win *window) rps() float64 { return float64(win.ok()) / win.wall.Seconds() }

// measurement is what a run measured after set-up and warm-up.
type measurement struct {
	win      *window           // the windows the reported metrics come from
	untraced *window           // traced run only: the untraced windows
	counters map[string]uint64 // growth of the layer counters over win
	proc     procUsage         // process usage over win
}

func (ms *measurement) attempted() int64 {
	return int64(len(ms.win.lat) + len(ms.untraced.lat))
}

func (ms *measurement) failed() int64 { return ms.win.failed + ms.untraced.failed }

// measure runs the timed windows through run. An untraced run is one
// window of d. A traced run alternates untraced and traced quarters of
// d as U T T U, so a drift across the run cancels out of the tracing
// overhead; the per-layer metrics come from the traced quarters.
func measure(d time.Duration, trace bool, run func(time.Duration, bool) (*window, error),
	counters func() map[string]uint64) (*measurement, error) {
	order := []bool{false}
	if trace {
		order, d = []bool{false, true, true, false}, d/4
	}
	ms := &measurement{win: &window{}, untraced: &window{}, counters: map[string]uint64{}}
	for _, traced := range order {
		c0, p0 := counters(), takeProcSnap()
		win, err := run(d, traced)
		if err != nil {
			return nil, err
		}
		p1, c1 := takeProcSnap(), counters()
		if traced != trace {
			ms.untraced.add(win)
			continue
		}
		ms.win.add(win)
		ms.proc = ms.proc.add(p1.sub(p0))
		for k, v := range c1 {
			ms.counters[k] += v - c0[k]
		}
	}
	return ms, nil
}

// endToEnd fills the metrics a user of the service sees over the
// window: requests and verified payload bytes completed per second, and
// the median latency.
func (win *window) endToEnd(m metrics) {
	m.put("throughput_rps", win.rps(), "1/s")
	m.put("latency_p50_ms", quantileMs(win.lat, 0.50), "ms")
	m.put("goodput_mbps", float64(win.bytes)*8/1e6/win.wall.Seconds(), "Mbit/s")
}
