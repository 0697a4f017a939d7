// Package rmc2000 models the RMC2000 TCP/IP Development Kit board
// (§4): a Rabbit 2000 CPU with 512 KB flash and 128 KB SRAM, four
// serial ports (port A doubles as the programming/debug channel the
// paper used, §5.1), a timer, and a 10Base-T network interface that
// attaches to the netsim wire.
//
// I/O register map (16-bit internal I/O addresses, Rabbit-style):
//
//	0x12        XPC bank register (shared with internal/dcc)
//	0x14/0x15   timer: latched milliseconds-since-reset (lo/hi)
//	0x98        I0CR: external interrupt 0 control (0x2B enables, as
//	            in the paper's WrPortI(I0CR, NULL, 0x2B) example)
//	0xC0        SADR: serial port A data
//	0xC3        SASR: serial port A status (bit7 rx-ready, bit3 tx-busy)
//	0xC4        SACR: serial port A control (bit0 rx-interrupt enable)
//	0xD0..0xF4  serial ports B, C, D (same layout, +0x10 per port)
//	0x80        NIC data window
//	0x81        NIC command/status
package rmc2000

import (
	"sync"

	"repro/internal/netsim"
	"repro/internal/rabbit"
)

// Board memory geometry.
const (
	FlashSize = 512 * 1024
	SRAMSize  = 128 * 1024
	// SRAMBase is where the 128K SRAM sits in physical space (/CS1).
	SRAMBase = 0x80000
)

// I/O port numbers.
const (
	PortXPC     = 0x12
	PortTimerLo = 0x14
	PortTimerHi = 0x15
	PortI0CR    = 0x98
	PortSADR    = 0xC0
	PortSASR    = 0xC3
	PortSACR    = 0xC4
	PortNICData = 0x80
	PortNICCmd  = 0x81
)

// Serial status bits.
const (
	SASRRxReady = 0x80
	SASRTxBusy  = 0x08
)

// Board is one RMC2000 with its devices.
type Board struct {
	CPU *rabbit.CPU

	Serial [4]*Serial
	NIC    *NIC
	timer  *timer

	mu   sync.Mutex
	i0cr uint8 // external interrupt 0 control register
	wdt  watchdog
}

// New creates a board. If hub is non-nil the NIC attaches to it with
// the given MAC.
func New(hub *netsim.Hub, mac netsim.MAC) (*Board, error) {
	b := &Board{CPU: rabbit.New()}
	for i := range b.Serial {
		b.Serial[i] = newSerial(b, i)
	}
	b.timer = &timer{}
	if hub != nil {
		port, err := hub.Attach(mac)
		if err != nil {
			return nil, err
		}
		b.NIC = newNIC(port)
	}
	b.CPU.IO = busAdapter{b}
	return b, nil
}

// LoadProgram writes an image through the programming port (flash
// protection bypassed) and points the CPU at its origin.
func (b *Board) LoadProgram(origin uint16, image []byte) {
	b.CPU.Mem.LoadPhysical(uint32(origin), image)
	b.CPU.PC = origin
	b.CPU.SP = 0xDFF0
}

// Step runs one CPU instruction and services board devices.
func (b *Board) Step() error {
	b.timer.tick(b.CPU.Cycles)
	b.wdtCheck()
	return b.CPU.Step()
}

// Run executes until HALT or the cycle budget is exhausted, servicing
// devices as it goes.
func (b *Board) Run(maxCycles uint64) error {
	start := b.CPU.Cycles
	for !b.CPU.Halted && b.CPU.Cycles-start < maxCycles {
		if err := b.Step(); err != nil {
			return err
		}
	}
	return nil
}

// busAdapter routes I/O port accesses to devices.
type busAdapter struct{ b *Board }

func (a busAdapter) In(port uint16) uint8 {
	b := a.b
	switch {
	case port == PortXPC:
		return b.CPU.Mem.MMU(rabbit.XPCReg)
	case port == PortTimerLo:
		return uint8(b.timer.latched)
	case port == PortTimerHi:
		return uint8(b.timer.latched >> 8)
	case port == PortI0CR:
		return b.readI0CR()
	case port >= PortSADR && port < PortSADR+0x40:
		idx := int(port-PortSADR) / 0x10
		reg := (port - PortSADR) % 0x10
		return b.Serial[idx].in(reg)
	case port == PortNICData && b.NIC != nil:
		return b.NIC.readData()
	case port == PortNICCmd && b.NIC != nil:
		return b.NIC.status()
	}
	return 0xff
}

func (a busAdapter) Out(port uint16, v uint8) {
	b := a.b
	switch {
	case port == PortXPC:
		b.CPU.Mem.SetMMU(rabbit.XPCReg, v)
	case port == PortTimerLo:
		b.timer.latch()
	case port == PortI0CR:
		b.setI0CR(v)
	case port == PortWDTCR:
		b.wdtWrite(v)
	case port >= PortSADR && port < PortSADR+0x40:
		idx := int(port-PortSADR) / 0x10
		reg := (port - PortSADR) % 0x10
		b.Serial[idx].out(reg, v)
	case port == PortNICData && b.NIC != nil:
		b.NIC.writeData(v)
	case port == PortNICCmd && b.NIC != nil:
		b.NIC.command(v)
	}
}

// readI0CR/setI0CR access the external interrupt 0 control register
// (paper example: 0x2B enables, 0x00 disables).
func (b *Board) readI0CR() uint8 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.i0cr
}

func (b *Board) setI0CR(v uint8) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.i0cr = v
}

// SetIntVector models SetVectExtern2000: installs the ISR address.
func (b *Board) SetIntVector(addr uint16) { b.CPU.IntVector = addr }

// --- timer ---------------------------------------------------------------------

// timer converts CPU cycles to milliseconds at the 30 MHz part clock
// and latches a 16-bit snapshot when the low byte port is written.
type timer struct {
	ms      uint64
	latched uint16
}

const cyclesPerMs = 30000 // 30 MHz

func (t *timer) tick(cycles uint64) { t.ms = cycles / cyclesPerMs }
func (t *timer) latch()             { t.latched = uint16(t.ms) }

// --- serial port ------------------------------------------------------------------

// Serial is one UART. The host side (the developer's PC, or the test)
// talks through HostSend/HostRecv; the CPU side uses the SADR/SASR/
// SACR registers. With the rx interrupt enabled (SACR bit 0), an
// incoming host byte raises the external interrupt — the paper's §5.1
// debug channel configuration.
type Serial struct {
	board *Board
	index int
	mu    sync.Mutex
	rx    []byte // host -> CPU
	tx    []byte // CPU -> host
	sacr  uint8
}

func newSerial(b *Board, idx int) *Serial {
	return &Serial{board: b, index: idx}
}

// HostSend queues a byte from the host toward the CPU, raising the rx
// interrupt when enabled.
func (s *Serial) HostSend(data ...byte) {
	s.mu.Lock()
	s.rx = append(s.rx, data...)
	intOn := s.sacr&0x01 != 0
	s.mu.Unlock()
	if intOn {
		s.board.CPU.RaiseInt()
	}
}

// HostRecv drains everything the CPU transmitted.
func (s *Serial) HostRecv() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.tx
	s.tx = nil
	return out
}

func (s *Serial) in(reg uint16) uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch reg {
	case 0: // SADR: data
		if len(s.rx) == 0 {
			return 0
		}
		v := s.rx[0]
		s.rx = s.rx[1:]
		return v
	case 3: // SASR: status
		var st uint8
		if len(s.rx) > 0 {
			st |= SASRRxReady
		}
		// tx never busy in the model
		return st
	case 4:
		return s.sacr
	}
	return 0xff
}

func (s *Serial) out(reg uint16, v uint8) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch reg {
	case 0: // SADR: transmit
		s.tx = append(s.tx, v)
	case 4: // SACR: control
		s.sacr = v
	}
}

// --- NIC -----------------------------------------------------------------------------

// NIC is a minimal packet interface bridging the CPU to the netsim
// wire: the CPU stages outgoing bytes through the data window and
// issues a send command; received frames queue for window reads. The
// kit's TCP/IP stack itself ships as a host-side library (internal/
// dcsock), like the precompiled libraries of the real kit.
type NIC struct {
	port  *netsim.Port
	mu    sync.Mutex
	txBuf []byte
	rxBuf []byte
	// batch holds drained frames not yet polled; the views stay valid
	// until the next Drain, which runs only once batch is empty.
	batch []netsim.EthFrame
}

// NIC commands written to PortNICCmd.
const (
	NICCmdSend  = 0x01 // transmit staged bytes as one broadcast frame
	NICCmdClear = 0x02 // drop staged bytes
	NICCmdPoll  = 0x03 // pull the next received frame into the window
)

func newNIC(port *netsim.Port) *NIC {
	n := &NIC{port: port}
	return n
}

func (n *NIC) writeData(v uint8) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.txBuf = append(n.txBuf, v)
}

func (n *NIC) readData() uint8 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.rxBuf) == 0 {
		return 0
	}
	v := n.rxBuf[0]
	n.rxBuf = n.rxBuf[1:]
	return v
}

func (n *NIC) status() uint8 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var st uint8
	if len(n.rxBuf) > 0 {
		st |= 0x80
	}
	return st
}

func (n *NIC) command(v uint8) {
	switch v {
	case NICCmdSend:
		n.mu.Lock()
		payload := n.txBuf
		n.txBuf = nil
		n.mu.Unlock()
		n.port.Send(netsim.Frame{Dst: netsim.Broadcast, EtherType: netsim.EtherTypeIPv4, Payload: payload})
	case NICCmdClear:
		n.mu.Lock()
		n.txBuf = nil
		n.mu.Unlock()
	case NICCmdPoll:
		n.mu.Lock()
		if len(n.batch) == 0 {
			// Drain never waits, as a poll must; an error means the port
			// closed, and the poll finds no frame.
			n.batch, _ = n.port.Drain()
		}
		if len(n.batch) > 0 {
			n.rxBuf = append(n.rxBuf, n.batch[0].Payload()...)
			n.batch = n.batch[1:]
		}
		n.mu.Unlock()
	}
}
