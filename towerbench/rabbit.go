package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/aesasm"
	"repro/internal/aesc"
	"repro/internal/core"
	"repro/internal/crypto/aes"
)

// rabbit-aes: chained AES-128 on the Rabbit simulator, the paper's §6
// experiment. One request encrypts a seeded key and plaintext through
// a chain on both machines: the hand-written assembly (aesasm) and the
// dcc-compiled C with every optimization (aesc, last row of
// core.E2Configs). Each chain's result is checked against the Go
// reference implementation.

const (
	asmChainBlocks = 8
	cChainBlocks   = 1
	// cyclesBlocks is the chain length whose marginal cost gives the
	// board figures (as in core.RunE1).
	cyclesBlocks = 8
)

// rabbitMachines is the rabbit-aes set-up: both AES images ready to run.
type rabbitMachines struct {
	asm               *aesasm.Machine
	c                 *aesc.Machine
	assemble, compile time.Duration
}

func loadRabbit() (*rabbitMachines, error) {
	rm := &rabbitMachines{}
	t0 := time.Now()
	asm, err := aesasm.Load()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	c, err := aesc.Build(core.E2Configs[len(core.E2Configs)-1].Opt)
	if err != nil {
		return nil, err
	}
	rm.asm, rm.c = asm, c
	rm.assemble, rm.compile = t1.Sub(t0), time.Since(t1)
	return rm, nil
}

// rabbitClient runs rabbit-aes requests in a closed loop.
type rabbitClient struct {
	rm     *rabbitMachines
	inputs *aesStream
	log    *spanLog // trace while a traced window runs, else nil
	trace  *spanLog
	reqID  uint64
	cycles uint64
	simNs  int64
	tally  tally
}

// do runs one request: both chains, then the reference check.
func (rc *rabbitClient) do() error {
	in := rc.inputs.next()
	rc.reqID++
	start := time.Now()
	root := rc.log.open(spanRequest, -1, rc.reqID)

	sp := rc.log.open(spanAsmChain, root, rc.reqID)
	asmOut, asmCyc, err := rc.rm.asm.EncryptChain(in.key, in.block, asmChainBlocks)
	rc.log.close(sp)
	if err != nil {
		rc.log.close(root)
		return err
	}
	sp = rc.log.open(spanCChain, root, rc.reqID)
	cOut, cCyc, err := rc.rm.c.EncryptChain(in.key, in.block, cChainBlocks)
	rc.log.close(sp)
	if err != nil {
		rc.log.close(root)
		return err
	}
	rc.simNs += int64(time.Since(start))

	sp = rc.log.open(spanRefChain, root, rc.reqID)
	ref, err := aes.NewAES(in.key[:])
	if err != nil {
		return err
	}
	want, wantC := in.block, [16]byte{}
	for i := 0; i < asmChainBlocks; i++ {
		ref.Encrypt(want[:], want[:])
		if i+1 == cChainBlocks {
			wantC = want
		}
	}
	rc.log.close(sp)
	rc.log.close(root)
	if asmOut != want {
		return fmt.Errorf("%w: aesasm chain %x, reference %x (request %d)", errAESMismatch, asmOut, want, rc.reqID)
	}
	if cOut != wantC {
		return fmt.Errorf("%w: aesc chain %x, reference %x (request %d)", errAESMismatch, cOut, wantC, rc.reqID)
	}
	rc.cycles += asmCyc + cCyc
	rc.tally.record(start, 16*(asmChainBlocks+cChainBlocks))
	return nil
}

var errAESMismatch = errors.New("AES mismatch")

// window runs requests for d and returns what they gave. With traced
// set, spans go to the trace log.
func (rc *rabbitClient) window(d time.Duration, traced bool) (*window, error) {
	epoch := time.Now()
	rc.tally, rc.log = tally{}, nil
	if traced {
		rc.log = rc.trace
	}
	for deadline := epoch.Add(d); time.Now().Before(deadline); {
		if err := rc.do(); err != nil {
			return nil, err
		}
	}
	win := &window{wall: time.Since(epoch)}
	win.merge(&rc.tally)
	return win, nil
}

// counters reports the simulated cycles and the host time spent
// simulating them, as layer counters for measure.
func (rc *rabbitClient) counters() map[string]uint64 {
	return map[string]uint64{"cycles": rc.cycles, "sim_ns": uint64(rc.simNs)}
}

func runRabbit(o *options) (*outcome, error) {
	var setups, assembles, compiles []float64
	var rm *rabbitMachines
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if rm, err = loadRabbit(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		assembles = append(assembles, float64(rm.assemble)/1e6)
		compiles = append(compiles, float64(rm.compile)/1e6)
	}
	rc := &rabbitClient{rm: rm, inputs: newAESStream(o.seed)}
	if o.trace {
		rc.trace = newSpanLog(time.Now())
	}
	if _, err := rc.window(warmup(o.seconds), false); err != nil {
		return nil, err
	}
	ms, err := measure(o.seconds, o.trace, rc.window, rc.counters)
	if err != nil {
		return nil, err
	}
	win := ms.win
	out := &outcome{m: metrics{}, attempted: ms.attempted(), failed: ms.failed(), samples: len(win.lat)}
	mcycles, simNs := float64(ms.counters["cycles"])/1e6, float64(ms.counters["sim_ns"])
	if !o.trace {
		win.endToEnd(out.m)
		out.m.put("setup_s", median(setups), "s")
		out.extra = win.forPeople()
		out.extra.put("sim_mcycles_per_s", mcycles/(simNs/1e9), "Mcycle/s")
		if err := boardFigures(rm, out.extra); err != nil {
			return nil, err
		}
		return out, nil
	}
	m := out.m
	m.put("rasm.assemble_ms", median(assembles), "ms")
	m.put("dcc.compile_ms", median(compiles), "ms")
	m.put("rabbit.ns_per_mcycle", simNs/mcycles, "ns")
	m.put("rabbit.sim_mcycles_per_s", mcycles/(simNs/1e9), "Mcycle/s")
	m.put("aesc.code_bytes", float64(rm.c.CodeSize()), "B")
	if err := boardFigures(rm, m); err != nil {
		return nil, err
	}
	procMetrics(ms.proc, win.ok(), m)
	st := collectSpans([]*spanLog{rc.trace})
	tracedMetrics(st, ms, m)
	out.spans = st
	return out, nil
}

// boardFigures puts the paper's table: marginal cycles per block and
// the AES throughput they give at the board's 30 MHz. Both are exact
// cycle counts, identical on every run.
func boardFigures(rm *rabbitMachines, m metrics) error {
	asm, err := rm.asm.CyclesPerBlock(cyclesBlocks)
	if err != nil {
		return err
	}
	c, err := rm.c.CyclesPerBlock(cyclesBlocks)
	if err != nil {
		return err
	}
	m.put("rabbit.cycles_per_block_asm", asm, "count")
	m.put("rabbit.cycles_per_block_c", c, "count")
	m.put("rabbit.board_kbps_asm", core.KBPerSecond(asm), "KB/s")
	m.put("rabbit.board_kbps_c", core.KBPerSecond(c), "KB/s")
	return nil
}
