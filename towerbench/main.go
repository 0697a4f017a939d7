// Command towerbench is the repository's benchmark: one program that
// runs a named workload against the whole tower (netsim hub, tcpip
// stacks, issl, the redirector or a cluster of them) or against the
// Rabbit AES machines, checks every output, and prints one JSON line of
// metrics.
//
//	towerbench --workload resume-echo --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones a user of the
// service sees. With --trace 1 the measured time is split into
// untraced and traced quarters; the traced ones record spans around
// every call into a layer, and the metrics are the per-layer ones plus
// the tracing overhead. Any echo or AES mismatch fails the run with exit code 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its world; setup_s is
// the median.
const setupRepeats = 9

// workloads are the networked traffic mixes; rabbit-aes is separate.
var workloads = map[string]*netWorkload{
	// Per-connection work dominates: TCP connect and teardown, resumed
	// handshakes against the session cache, redirector accept and
	// backend dial. RSA and bulk record work stay small.
	"resume-echo": {
		keyBits:        512,
		reconnectEvery: true,
		clientRequests: 4,
		resumePermille: 950,
		payloads:       []sizeWeight{{64, 60}, {512, 30}, {4096, 10}},
	},
	// The RSA private-key operation and the sign pool dominate; the
	// record path is negligible.
	"full-handshake": {
		keyBits:        1024,
		signWorkers:    2,
		reconnectEvery: true,
		payloads:       []sizeWeight{{64, 1}},
	},
	// Record seal/open, TCP segmentation, netsim delivery and both relay
	// loops carry every byte; handshakes are near zero.
	"bulk-stream": {
		keyBits:  512,
		nodes:    2,
		payloads: []sizeWeight{{4096, 1}, {16384, 1}},
	},
}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// outcome is one run's result before printing.
type outcome struct {
	m                 metrics // the metrics of the result line
	extra             metrics // printed for people only
	attempted, failed int64
	samples           int
	spans             *spanStats
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload does not reach reads 0.
var perLayer = map[string]string{
	"tcpip.connect_ms.p50": "ms", "tcpip.connect_ms.p99": "ms",
	"tcpip.segs_per_req": "count", "tcpip.retransmits": "count",
	"netsim.frames_per_req": "count", "netsim.drop_ratio": "ratio",
	"issl.handshake_full_ms.p50": "ms", "issl.handshake_full_ms.p99": "ms",
	"issl.handshake_resumed_ms.p50": "ms", "issl.handshake_resumed_ms.p99": "ms",
	"issl.resume_hit_ratio": "ratio", "issl.resume_fallbacks": "count",
	"issl.handshakes_failed": "count", "issl.signpool_queue_full_ratio": "ratio",
	"issl.write_ms.p50": "ms", "issl.records_per_req": "count", "issl.tickets_resumed": "count",
	"redirector.roundtrip_ms.p50": "ms", "redirector.roundtrip_ms.p99": "ms",
	"redirector.accepted": "count", "redirector.refused": "count",
	"cluster.roundtrip_ms.p50": "ms", "cluster.roundtrip_ms.p99": "ms",
	"cluster.failovers": "count", "cluster.node_share_max": "ratio",
	"process.cpu_ms_per_req": "ms", "process.cpu_util": "ratio",
	"process.allocs_per_req": "count", "process.alloc_bytes_per_req": "B", "process.gc_cycles": "count",
	"rasm.assemble_ms": "ms", "dcc.compile_ms": "ms",
	"rabbit.ns_per_mcycle": "ns", "rabbit.sim_mcycles_per_s": "Mcycle/s",
	"rabbit.cycles_per_block_asm": "count", "rabbit.cycles_per_block_c": "count",
	"rabbit.board_kbps_asm": "KB/s", "rabbit.board_kbps_c": "KB/s", "aesc.code_bytes": "B",
	"trace.unattributed_share": "ratio", "trace.overhead_share": "ratio", "trace.spans": "count",
	"request.latency_p99_ms": "ms",
}

// tracedMetrics puts what every traced run reports: the requests' 99th
// percentile latency, how well the spans cover the requests, and what
// tracing cost (the traced windows' throughput against the untraced
// ones').
func tracedMetrics(st *spanStats, ms *measurement, m metrics) {
	m.put("request.latency_p99_ms", quantileMs(ms.win.lat, 0.99), "ms")
	m.put("trace.unattributed_share", st.unattributedShare(), "ratio")
	m.put("trace.overhead_share", 1-ms.win.rps()/ms.untraced.rps(), "ratio")
	m.put("trace.spans", float64(st.count), "count")
}

func main() {
	o := &options{}
	flag.StringVar(&o.workload, "workload", "", "resume-echo, full-handshake, bulk-stream or rabbit-aes")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: measure per-layer metrics with spans")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the span file of a traced run")
	flag.Parse()
	o.seconds = time.Duration(*seconds) * time.Second
	o.trace = *trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "towerbench: --seconds must be positive")
		os.Exit(2)
	}

	var out *outcome
	var err error
	if o.workload == "rabbit-aes" {
		out, err = runRabbit(o)
	} else if wl, ok := workloads[o.workload]; ok {
		out, err = runNet(wl, o)
	} else {
		fmt.Fprintf(os.Stderr, "towerbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if errors.Is(err, errEchoMismatch) || errors.Is(err, errAESMismatch) {
		fmt.Fprintln(os.Stderr, "towerbench: FAIL:", err)
		printResult(result{Correct: false, Attempted: 1, Failed: 1, Metrics: metrics{}})
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "towerbench:", err)
		os.Exit(1)
	}
	if o.trace {
		for name, unit := range perLayer {
			if _, ok := out.m[name]; !ok {
				out.m.put(name, 0, unit)
			}
		}
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "towerbench:", err)
			os.Exit(1)
		}
		if err := out.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "towerbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", out.spans.count, path)
	}
	printHuman(o, out)
	printResult(result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: out.m})
}

// printHuman prints every metric by name and unit, one per line.
func printHuman(o *options, out *outcome) {
	fmt.Printf("workload %s seed %d: %d attempted, %d failed, %d latency samples\n",
		o.workload, o.seed, out.attempted, out.failed, out.samples)
	for _, m := range []metrics{out.m, out.extra} {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-34s %14.6g %s\n", name, m[name].Value, m[name].Unit)
		}
	}
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "towerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
