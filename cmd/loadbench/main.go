// Command loadbench drives the capacity-testing fleet (internal/
// loadgen) against the full secure-redirector vertical and emits the
// SLO report as text plus BENCH_load.json.
//
// The acceptance workload — a thousand returning clients at the
// Goldberg et al. 95% session-cache hit rate:
//
//	go run ./cmd/loadbench -seed 1 -clients 1000 -resume 0.95
//
// The plan section of the output (planned requests and handshakes) is
// identical across runs with one seed (see internal/loadgen); the
// measured section is the live run. -smoke runs a small fixed workload
// as a CI gate and exits 1 if any request failed or echoed wrong bytes;
// it writes a report only to an explicit -json path, so a smoke run
// never replaces the committed acceptance report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/loadgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, loadgen.Run))
}

// run is the command body; load executes the workload (loadgen.Run in
// production). It returns the process exit status.
func run(args []string, stdout, stderr io.Writer, load func(loadgen.Config) (*loadgen.Report, error)) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed        = fs.Uint64("seed", 1, "workload seed (drives every random decision)")
		clients     = fs.Int("clients", 100, "virtual client population")
		requests    = fs.Int("requests", 2, "requests per client")
		resume      = fs.Float64("resume", 0.5, "session-resumption probability on reconnect (0..1)")
		churn       = fs.Int("churn", 1, "reconnect every N requests (0 = one connection per client)")
		rate        = fs.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		concurrency = fs.Int("concurrency", 32, "closed-loop width / open-loop in-flight cap")
		payloads    = fs.String("payloads", "64:60,512:30,4096:10", "payload distribution size:weight,...")
		inflight    = fs.Int("inflight", 0, "redirector admission bound (0 = unbounded)")
		cache       = fs.Int("cache", 0, "session cache bound (0 = 2x clients)")
		latency     = fs.Duration("latency", 0, "one-way hub latency")
		faults      = fs.Bool("faults", false, "degrade the wire with the chaos soak fault plan")
		plain       = fs.Bool("plain", false, "plaintext baseline (no issl layer)")
		jsonPath    = fs.String("json", "BENCH_load.json", "report output path (empty = skip; -smoke writes only an explicit -json)")
		baseline    = fs.String("baseline", "", "prior report to diff against (empty = the -json path's current contents, if any)")
		smoke       = fs.Bool("smoke", false, "small fixed workload for CI (overrides sizing flags); exits 1 on any request error or echo mismatch")

		instances    = fs.Int("instances", 1, "redirector instances behind the L4 balancer (1 = no cluster)")
		policy       = fs.String("policy", "hash", "balancer policy: hash | least")
		killNode     = fs.Int("kill-node", 0, "cluster node to kill mid-load (with -kill-at)")
		killAt       = fs.Duration("kill-at", 0, "kill -kill-node this long into the run (0 = no kill)")
		restartAfter = fs.Duration("restart-after", 0, "restart the killed node this long after the kill (0 = stays down)")
		retries      = fs.Int("request-retries", 0, "per-request transport-failure retries (fresh connection each)")

		stampede = fs.Bool("stampede", false, "reconnect-stampede scenario: all clients dial at once, 0% resumption (forces -resume 0 -churn 1)")
		signpool = fs.Int("signpool", 0, "RSA sign/decrypt worker-pool size (0 = key ops inline)")
		keyBits  = fs.Int("keybits", 0, "server RSA key size (0 = 512; stampede runs want 1024)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	dist, err := loadgen.ParsePayloads(*payloads)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *clients <= 0 || *clients > loadgen.MaxClients {
		fmt.Fprintf(stderr, "loadbench: -clients %d out of range (1..%d)\n", *clients, loadgen.MaxClients)
		return 2
	}
	cfg := loadgen.Config{
		Seed:          *seed,
		Clients:       *clients,
		Requests:      *requests,
		Resume:        *resume,
		ChurnEvery:    *churn,
		Concurrency:   *concurrency,
		Payloads:      dist,
		MaxInflight:   *inflight,
		CacheSessions: *cache,
		HubLatency:    *latency,
		Plain:         *plain,
		Stampede:      *stampede,
		SignWorkers:   *signpool,
		KeyBits:       *keyBits,
	}
	if *instances > 1 {
		cfg.Instances = *instances
		cfg.Policy = *policy
		cfg.RequestRetries = *retries
		if *killAt > 0 {
			cfg.KillNode = *killNode
			cfg.KillAfter = *killAt
			cfg.RestartAfter = *restartAfter
		}
	}
	if *churn == 0 {
		cfg.KeepConnections()
	}
	if *rate > 0 {
		cfg.Mode = loadgen.ModeOpen
		cfg.RatePerSec = *rate
	}
	if *faults {
		cfg.Faults = chaos.SoakPlan(*seed)
	}
	if *smoke {
		cfg.Clients, cfg.Requests, cfg.Resume, cfg.Concurrency = 32, 2, 0.5, 16
		jsonSet := false
		fs.Visit(func(f *flag.Flag) { jsonSet = jsonSet || f.Name == "json" })
		if !jsonSet {
			*jsonPath = ""
		}
	}

	// Capture the baseline before the run (and before -json truncates
	// it — by default they are the same file): the committed
	// BENCH_load.json from the last perf PR is the "before" axis.
	basePath := *baseline
	if basePath == "" {
		basePath = *jsonPath
	}
	var base *loadgen.Report
	if basePath != "" {
		if f, err := os.Open(basePath); err == nil {
			base, err = loadgen.ReadReport(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		} else if *baseline != "" {
			// An explicit -baseline that does not exist is an error; a
			// missing default (first run) just skips the delta.
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	start := time.Now()
	rep, err := load(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if base != nil {
		rep.AttachBaseline(base)
	}
	if err := rep.WriteText(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "\ntotal run time %.1fs\n", time.Since(start).Seconds())

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		f.Close()
		fmt.Fprintf(stdout, "report written to %s\n", *jsonPath)
	}
	if m := &rep.Measured; *smoke && (m.Errors > 0 || m.EchoMismatches > 0) {
		fmt.Fprintf(stderr, "loadbench: smoke failed: %d request errors, %d echo mismatches\n",
			m.Errors, m.EchoMismatches)
		return 1
	}
	return 0
}
