package rmc2000

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rasm"
)

func loadAsm(t *testing.T, b *Board, src string) *rasm.Program {
	t.Helper()
	p, err := rasm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	b.LoadProgram(p.Origin, p.Code)
	return p
}

func newBoard(t *testing.T) *Board {
	t.Helper()
	b, err := New(nil, netsim.MAC{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSerialPolledEcho(t *testing.T) {
	b := newBoard(t)
	// Poll SASR until rx-ready, read SADR, write back +1, repeat 3x.
	loadAsm(t, b, `
SADR equ 0xC0
SASR equ 0xC3
        org 0
        ld b, 3
next:   ioi ld a, (SASR)
        and 0x80
        jr z, next
        ioi ld a, (SADR)
        inc a
        ioi ld (SADR), a
        djnz next
        halt
`)
	b.Serial[0].HostSend('a', 'b', 'c')
	if err := b.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := b.Serial[0].HostRecv(); !bytes.Equal(got, []byte("bcd")) {
		t.Errorf("serial echo = %q", got)
	}
}

// TestE8SerialInterrupt reproduces §5.1: configure serial port A to
// interrupt on input, register an ISR via the vector, and have the ISR
// answer a status query — the paper's debug channel.
func TestE8SerialInterrupt(t *testing.T) {
	b := newBoard(t)
	loadAsm(t, b, `
SADR equ 0xC0
SACR equ 0xC4
I0CR equ 0x98
        org 0
        ; main(): set up the interrupt, then idle incrementing a counter
        ld a, 0x01
        ioi ld (SACR), a      ; enable serial rx interrupt
        ld a, 0x2B
        ioi ld (I0CR), a      ; WrPortI(I0CR, NULL, 0x2B)
        ei
idle:   ld hl, (counter)
        inc hl
        ld (counter), hl
        jr idle

        org 0x60
        ; my_isr: read the command byte, reply with a status message
isr:    ioi ld a, (SADR)
        cp 's'
        jr nz, isr_done
        ld a, 'O'
        ioi ld (SADR), a
        ld a, 'K'
        ioi ld (SADR), a
isr_done:
        ei
        reti

counter: ds 2
`)
	b.SetIntVector(0x60)
	// Let main configure interrupts.
	for i := 0; i < 50; i++ {
		b.Step()
	}
	b.Serial[0].HostSend('s') // status query from the host
	for i := 0; i < 200; i++ {
		b.Step()
	}
	if got := b.Serial[0].HostRecv(); string(got) != "OK" {
		t.Errorf("ISR reply = %q, want OK", got)
	}
	// A second query works too (interrupts re-enabled by the ISR).
	b.Serial[0].HostSend('s')
	for i := 0; i < 200; i++ {
		b.Step()
	}
	if got := b.Serial[0].HostRecv(); string(got) != "OK" {
		t.Errorf("second ISR reply = %q", got)
	}
	// Unknown commands are ignored.
	b.Serial[0].HostSend('x')
	for i := 0; i < 200; i++ {
		b.Step()
	}
	if got := b.Serial[0].HostRecv(); len(got) != 0 {
		t.Errorf("unexpected reply to unknown command: %q", got)
	}
}

func TestSerialInterruptDisabled(t *testing.T) {
	b := newBoard(t)
	loadAsm(t, b, `
        org 0
        ei
loop:   jr loop
`)
	b.SetIntVector(0x60)
	// SACR bit 0 never set: HostSend must not interrupt.
	for i := 0; i < 20; i++ {
		b.Step()
	}
	b.Serial[0].HostSend('s')
	for i := 0; i < 100; i++ {
		b.Step()
	}
	if b.CPU.PC >= 0x60 && b.CPU.PC < 0x70 {
		t.Error("ISR entered without rx interrupt enabled")
	}
}

func TestTimerAdvances(t *testing.T) {
	b := newBoard(t)
	prog := loadAsm(t, b, `
TLO equ 0x14
THI equ 0x15
        org 0
        ioi ld (TLO), a       ; latch (value ignored)
        ioi ld a, (TLO)
        ld (first), a
        ld bc, 40000
wait:   dec bc
        ld a, b
        or c
        jr nz, wait
        ld bc, 40000
wait2:  dec bc
        ld a, b
        or c
        jr nz, wait2
        ioi ld (TLO), a
        ioi ld a, (TLO)
        ld (second), a
        halt
first:  ds 1
second: ds 1
`)
	if err := b.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	f := b.CPU.Mem.Read(prog.Symbols["first"])
	sec := b.CPU.Mem.Read(prog.Symbols["second"])
	if sec <= f {
		t.Errorf("timer did not advance: first=%d second=%d", f, sec)
	}
}

func TestFlashProtection(t *testing.T) {
	b := newBoard(t)
	loadAsm(t, b, `
        org 0
        ld a, 0x55
        ld (0x2000), a     ; inside flash region
        halt
`)
	b.CPU.Mem.FlashEnd = FlashSize // protect the low 512 KB
	if err := b.Run(1000); err != nil {
		t.Fatal(err)
	}
	if b.CPU.Mem.Phys[0x2000] == 0x55 {
		t.Error("flash write went through")
	}
	if b.CPU.Mem.IgnoredWrites == 0 {
		t.Error("ignored write not counted")
	}
}

func TestNICSendReceive(t *testing.T) {
	hub := netsim.NewHub()
	defer hub.Close()
	b, err := New(hub, netsim.MAC{2, 0, 0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := hub.Attach(netsim.MAC{2, 0, 0, 0, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// CPU program: stage "hi" and send; then poll for a reply and read
	// two bytes into memory.
	prog := loadAsm(t, b, `
NICD equ 0x80
NICC equ 0x81
        org 0
        ld a, 'h'
        ioi ld (NICD), a
        ld a, 'i'
        ioi ld (NICD), a
        ld a, 0x01          ; send
        ioi ld (NICC), a
poll:   ld a, 0x03          ; poll rx
        ioi ld (NICC), a
        ioi ld a, (NICC)
        and 0x80
        jr z, poll
        ioi ld a, (NICD)
        ld (got), a
        ioi ld a, (NICD)
        ld (got+1), a
        halt
got:    ds 2
`)
	done := make(chan error, 1)
	go func() { done <- b.Run(50_000_000) }()
	// Host peer: wait for "hi", answer "yo".
	<-peer.Ready()
	frames, err := peer.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if f := frames[0]; string(f.Payload()) != "hi" {
		t.Errorf("board sent %q", f.Payload())
	}
	peer.Send(netsim.Frame{Dst: netsim.Broadcast, Payload: []byte("yo")})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	addr := prog.Symbols["got"]
	if b.CPU.Mem.Read(addr) != 'y' || b.CPU.Mem.Read(addr+1) != 'o' {
		t.Errorf("board received %c%c", b.CPU.Mem.Read(addr), b.CPU.Mem.Read(addr+1))
	}
}

// TestWatchdogResetsWhenStarved: a program that arms the watchdog and
// then spins without hitting it gets reset; the reset count climbs and
// execution restarts at the reset vector.
func TestWatchdogResetsWhenStarved(t *testing.T) {
	b := newBoard(t)
	loadAsm(t, b, `
WDTCR equ 0x08
        org 0
        ld a, (0x4000)     ; boot-count cell: RAM survives resets
        inc a
        ld (0x4000), a
        ld a, 0x51         ; arm, 250ms
        ioi ld (WDTCR), a
spin:   jr spin            ; never hits the watchdog
`)
	// 250ms at 30MHz = 7.5M cycles; run far enough for 2 resets.
	for b.WatchdogResets() < 2 && b.CPU.Cycles < 40_000_000 {
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if b.WatchdogResets() < 2 {
		t.Fatalf("watchdog fired %d times in %d cycles", b.WatchdogResets(), b.CPU.Cycles)
	}
	// The boot counter incremented once per reset pass (RAM persisted).
	if boots := b.CPU.Mem.Read(0x4000); boots < 2 {
		t.Errorf("boot counter = %d", boots)
	}
}

// TestWatchdogSurvivesWhenKicked: the same structure with a hit in the
// loop never resets.
func TestWatchdogSurvivesWhenKicked(t *testing.T) {
	b := newBoard(t)
	loadAsm(t, b, `
WDTCR equ 0x08
        org 0
        ld a, 0x51
        ioi ld (WDTCR), a
loop:   ld a, 0x5A
        ioi ld (WDTCR), a  ; hit
        jr loop
`)
	for b.CPU.Cycles < 20_000_000 {
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if b.WatchdogResets() != 0 {
		t.Errorf("watchdog fired %d times despite kicks", b.WatchdogResets())
	}
	b.mu.Lock()
	armed := b.wdt.enabled
	b.mu.Unlock()
	if !armed {
		t.Error("watchdog not armed")
	}
}

func TestWatchdogDisable(t *testing.T) {
	b := newBoard(t)
	loadAsm(t, b, `
WDTCR equ 0x08
        org 0
        ld a, 0x51
        ioi ld (WDTCR), a
        ld a, 0x00
        ioi ld (WDTCR), a  ; disable
spin:   jr spin
`)
	for b.CPU.Cycles < 10_000_000 {
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if b.WatchdogResets() != 0 {
		t.Error("disabled watchdog fired")
	}
}
