// Package rabbit is an instruction-level simulator for the Rabbit 2000
// microcontroller — the Z80-derived 8-bit CPU on the RMC2000 board
// (§4): 16-bit logical addresses, 1 MB of physical memory reached
// through bank switching, and per-instruction cycle counts modeled on
// the Rabbit 2000 user's manual (approximate, but consistent — the
// asm-vs-C experiments depend on relative, not absolute, timing).
//
// The memory map follows §4.3: "The lower 50K is fixed, root memory,
// the middle 6K is I/O, and the top 8K is bank-switched access to the
// remaining memory" — concretely the Rabbit's four segments: root,
// data segment, stack segment, and the 8 KB XPC window at 0xE000
// relocated by the XPC register.
package rabbit

// PhysMemSize is the 1 MB physical address space (20-bit).
const PhysMemSize = 1 << 20

// Segment window bases in the 64 KB logical space.
const (
	// StackSegBase is the 4 KB stack segment at 0xD000.
	StackSegBase = 0xD000
	// XPCSegBase is the 8 KB bank-switched window at 0xE000.
	XPCSegBase = 0xE000
)

// MMUReg names one of the Rabbit's four MMU registers.
type MMUReg uint8

// The MMU registers (Rabbit 2000 user's manual, ch. 3).
const (
	SegSizeReg  MMUReg = iota // SEGSIZE: low nibble is the data segment boundary (4K units)
	StackSegReg               // STACKSEG
	DataSegReg                // DATASEG
	XPCReg                    // XPC
)

// Memory is the Rabbit's MMU plus physical storage.
//
// Physical address calculation (Rabbit 2000 user's manual, ch. 3):
//
//	logical in [0, dataBase)      -> physical = logical            (root)
//	logical in [dataBase, 0xD000) -> physical = logical + DATASEG<<12
//	logical in [0xD000, 0xE000)   -> physical = logical + STACKSEG<<12
//	logical in [0xE000, 0xFFFF]   -> physical = logical + XPC<<12
//
// where dataBase = (SEGSIZE & 0x0F) << 12. All physical addresses wrap
// at 20 bits.
//
// Every segment boundary falls on a 4 KB page, so the mapping is kept
// as a 16-entry page table and each access is one table lookup.
// SetMMU is the only way to change an MMU register: it rebuilds the
// table, and a register changed any other way would leave the table
// stale.
type Memory struct {
	Phys []byte

	// FlashEnd marks [0, FlashEnd) as write-protected flash; writes
	// there are ignored (and counted), like real flash without an
	// unlock sequence.
	FlashEnd      uint32
	IgnoredWrites uint64

	mmu [4]uint8 // indexed by MMUReg
	// page holds, per 4 KB logical page, the offset the MMU adds to
	// a logical address in that page (before the 20-bit wrap).
	page [16]uint32
}

// NewMemory allocates the full 1 MB physical space. All MMU registers
// start at zero, which maps every logical address to itself.
func NewMemory() *Memory {
	return &Memory{Phys: make([]byte, PhysMemSize)}
}

// MMU returns the value of an MMU register.
func (m *Memory) MMU(r MMUReg) uint8 { return m.mmu[r] }

// SetMMU writes an MMU register and remaps the logical pages.
func (m *Memory) SetMMU(r MMUReg, v uint8) {
	m.mmu[r] = v
	dataBase := int(m.mmu[SegSizeReg] & 0x0f)
	for p := range m.page {
		var seg uint8
		switch {
		case p<<12 >= XPCSegBase:
			seg = m.mmu[XPCReg]
		case p<<12 >= StackSegBase:
			seg = m.mmu[StackSegReg]
		case p >= dataBase:
			seg = m.mmu[DataSegReg]
		}
		m.page[p] = uint32(seg) << 12
	}
}

// Physical translates a logical address through the MMU.
func (m *Memory) Physical(logical uint16) uint32 {
	return (uint32(logical) + m.page[logical>>12]) & (PhysMemSize - 1)
}

// Read fetches one byte through the MMU.
func (m *Memory) Read(addr uint16) byte {
	return m.Phys[m.Physical(addr)]
}

// Write stores one byte through the MMU, respecting flash protection.
func (m *Memory) Write(addr uint16, v byte) {
	p := m.Physical(addr)
	if p < m.FlashEnd {
		m.IgnoredWrites++
		return
	}
	m.Phys[p] = v
}

// Read16 fetches a little-endian word.
func (m *Memory) Read16(addr uint16) uint16 {
	return uint16(m.Read(addr)) | uint16(m.Read(addr+1))<<8
}

// Write16 stores a little-endian word.
func (m *Memory) Write16(addr uint16, v uint16) {
	m.Write(addr, byte(v))
	m.Write(addr+1, byte(v>>8))
}

// LoadPhysical copies an image into physical memory at the given
// address, bypassing flash protection (the programming port's job).
func (m *Memory) LoadPhysical(addr uint32, img []byte) {
	copy(m.Phys[addr:], img)
}
