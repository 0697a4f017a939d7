// Package core is the experiment harness: one entry point per result
// in the paper's evaluation (§6 plus the structural figures), each
// returning structured data that the cmd tools print as tables, the
// root benchmarks time, and EXPERIMENTS.md records. Everything runs on
// the simulated substrate — the Rabbit CPU model for on-board cycle
// counts, the netsim/tcpip world for service throughput.
package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/aesasm"
	"repro/internal/aesc"
	"repro/internal/crypto/aes"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
	"repro/internal/dcc"
	"repro/internal/dcsock"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/redirector"
	"repro/internal/tcpip"
)

// ClockHz is the RMC2000's CPU clock (30 MHz, §4).
const ClockHz = 30_000_000

// KBPerSecond converts cycles-per-16-byte-block to throughput at the
// board's clock.
func KBPerSecond(cyclesPerBlock float64) float64 {
	blocksPerSec := ClockHz / cyclesPerBlock
	return blocksPerSec * 16 / 1024
}

// --- E1: hand assembly vs compiled C ------------------------------------------

// E1Result is the paper's headline comparison.
type E1Result struct {
	// COptions builds the C body; Blocks is the chain length whose
	// marginal cost per block is measured (the key schedule and the
	// first block are subtracted, see aesc.Machine.CyclesPerBlock).
	COptions dcc.Options
	Blocks   int

	CCyclesPerBlock   float64
	AsmCyclesPerBlock float64
	Factor            float64
	CKBps             float64
	AsmKBps           float64
}

// RunE1 measures AES-128 cycles/block for the Dynamic C build
// (out-of-the-box: debugging on, no optimization) against the
// hand-written assembly, both on the CPU simulator.
func RunE1() (*E1Result, error) {
	const blocks = 8
	opt := dcc.Options{Debug: true}
	cm, err := aesc.Build(opt)
	if err != nil {
		return nil, err
	}
	cCyc, err := cm.CyclesPerBlock(blocks)
	if err != nil {
		return nil, err
	}
	am, err := aesasm.Load()
	if err != nil {
		return nil, err
	}
	aCyc, err := am.CyclesPerBlock(blocks)
	if err != nil {
		return nil, err
	}
	return &E1Result{
		COptions:          opt,
		Blocks:            blocks,
		CCyclesPerBlock:   cCyc,
		AsmCyclesPerBlock: aCyc,
		Factor:            cCyc / aCyc,
		CKBps:             KBPerSecond(cCyc),
		AsmKBps:           KBPerSecond(aCyc),
	}, nil
}

// --- E2: optimization sweep on the C port ---------------------------------------

// E2Row is one compiler configuration's measurement.
type E2Row struct {
	Name           string
	Options        dcc.Options
	CyclesPerBlock float64
	CodeSize       int
	GainVsBaseline float64 // fraction, e.g. 0.20 = 20% faster
}

// E2Configs is the sweep: the four §6 optimizations, alone and together.
var E2Configs = []struct {
	Name string
	Opt  dcc.Options
}{
	{"baseline (debug on)", dcc.Options{Debug: true}},
	{"disable debugging", dcc.Options{}},
	{"+ root data", dcc.Options{RootData: true}},
	{"+ unroll loops", dcc.Options{Unroll: true}},
	{"+ peephole", dcc.Options{Peephole: true}},
	{"all optimizations", dcc.Options{Unroll: true, RootData: true, Peephole: true}},
}

// RunE2 sweeps the optimization knobs over the same AES C source.
func RunE2() ([]E2Row, error) {
	rows := make([]E2Row, 0, len(E2Configs))
	var baseline float64
	for i, cfg := range E2Configs {
		m, err := aesc.Build(cfg.Opt)
		if err != nil {
			return nil, fmt.Errorf("config %q: %w", cfg.Name, err)
		}
		cyc, err := m.CyclesPerBlock(4)
		if err != nil {
			return nil, fmt.Errorf("config %q: %w", cfg.Name, err)
		}
		if i == 0 {
			baseline = cyc
		}
		rows = append(rows, E2Row{
			Name:           cfg.Name,
			Options:        cfg.Opt,
			CyclesPerBlock: cyc,
			CodeSize:       m.CodeSize(),
			GainVsBaseline: 1 - cyc/baseline,
		})
	}
	return rows, nil
}

// --- E3: code size vs speed -------------------------------------------------------

// E3Row pairs a code size with its speed for the correlation table.
type E3Row struct {
	Name           string
	CodeSize       int
	CyclesPerBlock float64
}

// E3Result carries the asm-vs-C size comparison plus the
// size-uncorrelated-with-speed table.
type E3Result struct {
	AsmSize      int
	CSizeBase    int
	AsmSmallerBy float64 // fraction
	Rows         []E3Row
}

// RunE3 measures code sizes across all builds.
func RunE3() (*E3Result, error) {
	am, err := aesasm.Load()
	if err != nil {
		return nil, err
	}
	aCyc, err := am.CyclesPerBlock(4)
	if err != nil {
		return nil, err
	}
	res := &E3Result{AsmSize: am.CodeSize()}
	res.Rows = append(res.Rows, E3Row{"hand assembly", am.CodeSize(), aCyc})
	for i, cfg := range E2Configs {
		m, err := aesc.Build(cfg.Opt)
		if err != nil {
			return nil, err
		}
		cyc, err := m.CyclesPerBlock(4)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			res.CSizeBase = m.CodeSize()
		}
		res.Rows = append(res.Rows, E3Row{"C: " + cfg.Name, m.CodeSize(), cyc})
	}
	res.AsmSmallerBy = 1 - float64(res.AsmSize)/float64(res.CSizeBase)
	return res, nil
}

// --- E4: SSL cost on service throughput ---------------------------------------------

// E4Result compares plaintext and issl-secured redirector throughput
// (the §2 Goldberg et al. observation: SSL costs about an order of
// magnitude). Throughput is KB of payload per second of process CPU
// time, so it counts the work done rather than how the scheduler
// interleaved it with idle waits.
//
// SecureKBps and Slowdown are software SSL, the configuration the
// paper's claim is about: the record kernels run the portable Go code
// (T-table AES, Go SHA-1 rounds). HardwareKBps and HardwareSlowdown
// are the same transfer on the CPU's AES and SHA instructions, where
// it has them (on a CPU without them they repeat the software row).
type E4Result struct {
	PlainKBps        float64
	SecureKBps       float64
	Slowdown         float64
	HardwareKBps     float64
	HardwareSlowdown float64
	Bytes            int
}

// e4Rounds is how many transfers RunE4 makes per configuration. The
// best one is reported, which filters out work that other goroutines
// happened to do inside a transfer's window.
const e4Rounds = 5

// RunE4 builds a three-host world (client, redirector, backend sink)
// and relays payload bytes through each configuration.
func RunE4(payload int) (*E4Result, error) {
	var plain, secure, hw float64
	for i := 0; i < e4Rounds; i++ {
		p, err := RedirectorThroughput(false, payload)
		if err != nil {
			return nil, fmt.Errorf("plain: %w", err)
		}
		s, err := softwareCrypto(func() (float64, error) { return RedirectorThroughput(true, payload) })
		if err != nil {
			return nil, fmt.Errorf("secure: %w", err)
		}
		h, err := RedirectorThroughput(true, payload)
		if err != nil {
			return nil, fmt.Errorf("secure (hardware): %w", err)
		}
		plain, secure, hw = max(plain, p), max(secure, s), max(hw, h)
	}
	return &E4Result{
		PlainKBps:        plain,
		SecureKBps:       secure,
		Slowdown:         plain / secure,
		HardwareKBps:     hw,
		HardwareSlowdown: plain / hw,
		Bytes:            payload,
	}, nil
}

// softwareCrypto runs f with the AES and SHA-1 kernels on their
// portable paths, then restores the previous choice.
func softwareCrypto(f func() (float64, error)) (float64, error) {
	defer aes.SetHardware(aes.SetHardware(false))
	defer sha1.SetHardware(sha1.SetHardware(false))
	return f()
}

// RedirectorThroughput measures one configuration in KB of payload
// moved client -> redirector -> sink over the simulated LAN per second
// of process CPU time, over one connection from connect to the sink's
// acknowledgment.
func RedirectorThroughput(secure bool, payload int) (float64, error) {
	hub := netsim.NewHub()
	defer hub.Close()
	mk := func(last byte) (*tcpip.Stack, error) {
		return tcpip.NewStack(hub, tcpip.IP4(10, 9, 0, last))
	}
	cli, err := mk(1)
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	mid, err := mk(2)
	if err != nil {
		return 0, err
	}
	defer mid.Close()
	back, err := mk(3)
	if err != nil {
		return 0, err
	}
	defer back.Close()

	// Backend: a sink that drains and acknowledges with one byte at EOF.
	sink, err := back.Listen(9000, 4)
	if err != nil {
		return 0, err
	}
	go func() {
		for {
			conn, err := sink.Accept(10 * time.Second)
			if err != nil {
				return
			}
			go func(c *tcpip.TCB) {
				buf := make([]byte, 8192)
				total := 0
				for {
					n, err := c.ReadDeadline(buf, time.Now().Add(10*time.Second))
					total += n
					if err != nil {
						c.Write([]byte{1})
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()

	var key *rsa.PrivateKey
	if secure {
		key, err = rsa.GenerateKey(prng.NewXorshift(0xE4), 512)
		if err != nil {
			return 0, err
		}
	}
	srv, err := redirector.NewUnixServer(mid, redirector.Config{
		ListenPort: 443, Target: back.Addr(), TargetPort: 9000,
		Secure: secure, ServerKey: key, RandSeed: 11,
	})
	if err != nil {
		return 0, err
	}
	go srv.Serve()
	defer srv.Close()

	cpu0 := processCPU()
	tcb, err := cli.Connect(mid.Addr(), 443, 10*time.Second)
	if err != nil {
		return 0, err
	}
	defer tcb.Close()
	deadline := time.Now().Add(10 * time.Second)
	var w io.Writer = tcb
	closeWrite := tcb.CloseWrite
	readAck := func(b []byte) (int, error) { return tcb.ReadDeadline(b, deadline) }
	if secure {
		sc, err := issl.BindClient(tcb, issl.Config{Profile: issl.ProfileUnix, Rand: prng.NewXorshift(12)})
		if err != nil {
			return 0, err
		}
		sc.SetReadDeadline(deadline)
		w, closeWrite, readAck = sc, sc.CloseWrite, sc.Read
	}
	chunk := make([]byte, 4096)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	for sent := 0; sent < payload; {
		n := min(payload-sent, len(chunk))
		if _, err := w.Write(chunk[:n]); err != nil {
			return 0, fmt.Errorf("after %d bytes: %w", sent, err)
		}
		sent += n
	}
	closeWrite()
	// The sink acknowledges with one byte at EOF, via the redirector and,
	// when secure, through the issl layer: only then has every payload
	// byte crossed both hops.
	if n, err := readAck(make([]byte, 1)); n != 1 {
		return 0, fmt.Errorf("acknowledgment: %v", err)
	}
	cpu := (processCPU() - cpu0).Seconds()
	return float64(payload) / 1024 / cpu, nil
}

// --- E5: Fig. 3 connection limit ---------------------------------------------------

// E5Result records the connection-slot experiment.
type E5Result struct {
	Slots        int
	ServedAtOnce int
	ExtraRefused bool
	SlotReusable bool
}

// RunE5 fills all slots of an embedded redirector, verifies the next
// connection is refused, then frees a slot and verifies reuse.
func RunE5() (*E5Result, error) {
	hub := netsim.NewHub()
	defer hub.Close()
	cli, err := tcpip.NewStack(hub, tcpip.IP4(10, 5, 0, 1))
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	dev, err := tcpip.NewStack(hub, tcpip.IP4(10, 5, 0, 2))
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	back, err := tcpip.NewStack(hub, tcpip.IP4(10, 5, 0, 3))
	if err != nil {
		return nil, err
	}
	defer back.Close()

	echoL, err := back.Listen(9000, 8)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			conn, err := echoL.Accept(10 * time.Second)
			if err != nil {
				return
			}
			go func(c *tcpip.TCB) {
				buf := make([]byte, 1024)
				for {
					n, err := c.ReadDeadline(buf, time.Now().Add(10*time.Second))
					if n > 0 {
						c.Write(buf[:n])
					}
					if err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()

	psk := []byte("e5-psk")
	const slots = 3 // the embedded redirector's fixed slot count (Fig. 3)
	srv, err := redirector.NewEmbeddedServer(dcsock.NewEnv(dev), redirector.Config{
		ListenPort: 443, Target: back.Addr(), TargetPort: 9000,
		Secure: true, PSK: psk, RandSeed: 5,
	})
	if err != nil {
		return nil, err
	}
	go srv.Run()
	defer srv.Close()
	time.Sleep(50 * time.Millisecond)

	res := &E5Result{Slots: slots}
	var conns []*issl.Conn
	var tcbs []*tcpip.TCB
	for i := 0; i < slots; i++ {
		tcb, err := cli.Connect(dev.Addr(), 443, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("slot %d connect: %w", i, err)
		}
		sc, err := issl.BindClient(tcb, issl.Config{
			Profile: issl.ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(uint64(300 + i))})
		if err != nil {
			return nil, fmt.Errorf("slot %d handshake: %w", i, err)
		}
		sc.Write([]byte("x"))
		buf := make([]byte, 4)
		if _, err := sc.Read(buf); err != nil {
			return nil, fmt.Errorf("slot %d echo: %w", i, err)
		}
		res.ServedAtOnce++
		conns = append(conns, sc)
		tcbs = append(tcbs, tcb)
	}
	if _, err := cli.Connect(dev.Addr(), 443, 2*time.Second); err != nil {
		res.ExtraRefused = true
	}
	conns[0].Close()
	tcbs[0].Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if tcb, err := cli.Connect(dev.Addr(), 443, time.Second); err == nil {
			res.SlotReusable = true
			tcb.Close()
			break
		}
	}
	for i := 1; i < slots; i++ {
		conns[i].Close()
		tcbs[i].Close()
	}
	return res, nil
}
