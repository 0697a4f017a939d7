package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is the whole process's CPU and allocation state at one
// instant; two of them bracket a measurement window.
type procSnap struct {
	wall time.Time
	procUsage
}

// procUsage is what the process spent between two snapshots.
type procUsage struct {
	wall, cpu  time.Duration // cpu is user + system
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
}

func takeProcSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return procSnap{wall: time.Now(), procUsage: procUsage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcs: ms.NumGC,
	}}
}

func (b procSnap) sub(a procSnap) procUsage {
	return procUsage{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes, gcs: b.gcs - a.gcs}
}

func (u procUsage) add(v procUsage) procUsage {
	return procUsage{wall: u.wall + v.wall, cpu: u.cpu + v.cpu, mallocs: u.mallocs + v.mallocs,
		allocBytes: u.allocBytes + v.allocBytes, gcs: u.gcs + v.gcs}
}

// procMetrics puts the process.* metrics: CPU and allocations per
// request, and how busy the cores were, so a throughput change can be
// read as a cost change only when they were saturated.
func procMetrics(u procUsage, requests int64, m metrics) {
	per := func(v float64) float64 { return v / float64(max(requests, 1)) }
	m.put("process.cpu_ms_per_req", per(float64(u.cpu)/1e6), "ms")
	m.put("process.cpu_util", float64(u.cpu)/(float64(u.wall)*float64(runtime.GOMAXPROCS(0))), "ratio")
	m.put("process.allocs_per_req", per(float64(u.mallocs)), "count")
	m.put("process.alloc_bytes_per_req", per(float64(u.allocBytes)), "B")
	m.put("process.gc_cycles", float64(u.gcs), "count")
}
