package rmc2000

// Watchdog timer. The Rabbit 2000's WDT resets the part unless
// software periodically writes the restart code to WDTCR — the safety
// net behind the §5.1 behavior of "reset the application, possibly
// maintaining program state": on a watchdog reset, ordinary RAM state
// is suspect, and `protected` variables (internal/embedded) are what
// survives.
//
// Model: port 0x08 (WDTCR).
//
//	write 0x5A      hit the watchdog (restart the countdown)
//	write 0x51..53  select timeout: 0x51=250ms 0x52=500ms 0x53=1s and arm
//	write 0x00      disable (the simulator allows it; real parts resist)

// PortWDTCR is the watchdog control register port.
const PortWDTCR = 0x08

// Watchdog hit and period codes.
const (
	WDTHit     = 0x5A
	WDTArm250  = 0x51
	WDTArm500  = 0x52
	WDTArm1000 = 0x53
	WDTDisable = 0x00
)

type watchdog struct {
	enabled  bool
	periodCy uint64
	lastKick uint64
	resets   uint64
}

// WatchdogResets reports how many times the watchdog has fired.
func (b *Board) WatchdogResets() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wdt.resets
}

// wdtWrite handles a WDTCR store.
func (b *Board) wdtWrite(v uint8) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch v {
	case WDTHit:
		b.wdt.lastKick = b.CPU.Cycles
	case WDTArm250:
		b.wdt.enabled = true
		b.wdt.periodCy = cyclesPerMs * 250
		b.wdt.lastKick = b.CPU.Cycles
	case WDTArm500:
		b.wdt.enabled = true
		b.wdt.periodCy = cyclesPerMs * 500
		b.wdt.lastKick = b.CPU.Cycles
	case WDTArm1000:
		b.wdt.enabled = true
		b.wdt.periodCy = cyclesPerMs * 1000
		b.wdt.lastKick = b.CPU.Cycles
	case WDTDisable:
		b.wdt.enabled = false
	}
}

// wdtCheck fires the reset when the countdown lapses. Called from Step.
func (b *Board) wdtCheck() {
	b.mu.Lock()
	fire := b.wdt.enabled && b.CPU.Cycles-b.wdt.lastKick > b.wdt.periodCy
	if fire {
		b.wdt.resets++
		b.wdt.lastKick = b.CPU.Cycles
	}
	b.mu.Unlock()
	if fire {
		// Hardware reset: PC to the reset vector, interrupts off,
		// watchdog stays armed (it is a hardware timer). RAM contents
		// survive — which is exactly why protected variables matter.
		cycles := b.CPU.Cycles
		instrs := b.CPU.Instructions
		b.CPU.Reset()
		b.CPU.Cycles = cycles // wall time continues across resets
		b.CPU.Instructions = instrs
	}
}
