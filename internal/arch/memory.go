package arch

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Memory is the simulated physical address space. It is sparse: frames
// are allocated on first touch, so a system can declare a large
// physical map without committing host RAM for it.
//
// Accesses are 64-bit-word granular, which is all the hypervisor and
// page-table machinery need. Word accesses are single-copy atomic,
// matching the architecture: hardware translation-table walks at EL0/1
// legitimately race with the hypervisor's descriptor updates, and each
// observes either the old or the new descriptor, never a torn one.
type Memory struct {
	// ram and mmio are flat slot arrays for the two declared regions,
	// indexed by frame number within the region. The access pattern is
	// extreme read-mostly — every simulated load/store and every ghost
	// interpretation walk resolves frames — and an indexed array load
	// beats the previous sync.Map (interface-boxed PFN keys were ~25%
	// of campaign CPU in profiles). Insertion happens once per frame
	// ever touched and races benignly (CompareAndSwap keeps exactly
	// one winner). Frames are never deleted.
	ram  []atomic.Pointer[frameCell]
	mmio []atomic.Pointer[frameCell]
	// out catches stray accesses outside both declared regions (the
	// random tester can aim hypercalls anywhere); it stays a sync.Map
	// because it is expected to be near-empty.
	out sync.Map
	// nframes counts distinct frames ever touched.
	nframes atomic.Int64

	// touchMu guards the append-only first-touch log below.
	touchMu sync.Mutex
	// touched records every frame in the order it was first allocated.
	// Snapshots iterate a prefix of this log instead of scanning the
	// (potentially millions of) slots of a large physical map, and a
	// baseline discovers frames born after its capture by reading the
	// log's suffix.
	touched []PFN

	// Layout of the physical map.
	ramStart PhysAddr
	ramSize  uint64
	mmioEnd  PhysAddr // MMIO occupies [0, mmioEnd) below RAM
}

// Frame is one 4KB physical frame, stored as 512 64-bit words.
type Frame [PTEsPerTable]uint64

// PTE views slot idx of a table-page frame as a descriptor — the bulk
// companion to Memory.ReadPTE for walkers that copied the whole frame
// out with ReadFrame.
func (f *Frame) PTE(idx int) PTE { return PTE(f[idx]) }

// frameCell is a frame plus its write-generation counters: one for the
// frame and one per 64-word block. A store bumps the counter of the
// block it stored into, then the frame's, so a reader that records a
// generation before reading the contents can later detect whether any
// word it covers may have changed — the invalidation signal the ghost
// abstraction cache and the snapshot dirty-tracker key on. The frame
// counter says whether to look at all; the block counters say which
// eighths of the frame to re-read. Bumping after the store (not
// before) is the conservative order: a racing snapshot can record a
// stale generation for fresh data (forcing a needless re-read later)
// but never a fresh generation for stale data.
type frameCell struct {
	gen    atomic.Uint64
	blocks [FrameBlocks]atomic.Uint64
	f      Frame
}

// BlockWords is the number of words covered by one block generation
// counter, and FrameBlocks the number of blocks in a frame.
const (
	BlockWords  = 64
	FrameBlocks = PTEsPerTable / BlockWords
)

// MemLayout describes the simulated physical map: a contiguous RAM
// region, optionally preceded by an MMIO hole at the bottom of the
// address space.
type MemLayout struct {
	RAMStart PhysAddr // base of DRAM, page-aligned
	RAMSize  uint64   // bytes of DRAM, page multiple
	MMIOSize uint64   // bytes of MMIO space at physical 0
}

// DefaultLayout is a small Android-ish physical map: 256MB of DRAM at
// 1GB with 16MB of MMIO at the bottom of the address space.
func DefaultLayout() MemLayout {
	return MemLayout{RAMStart: 1 << 30, RAMSize: 256 << 20, MMIOSize: 16 << 20}
}

// NewMemory creates a sparse physical memory with the given layout.
func NewMemory(l MemLayout) *Memory {
	if !PageAligned(uint64(l.RAMStart)) || !PageAligned(l.RAMSize) || !PageAligned(l.MMIOSize) {
		panic("arch: memory layout must be page aligned")
	}
	return &Memory{
		ram:      make([]atomic.Pointer[frameCell], l.RAMSize>>PageShift),
		mmio:     make([]atomic.Pointer[frameCell], l.MMIOSize>>PageShift),
		ramStart: l.RAMStart,
		ramSize:  l.RAMSize,
		mmioEnd:  PhysAddr(l.MMIOSize),
	}
}

// RAMStart returns the base physical address of DRAM.
func (m *Memory) RAMStart() PhysAddr { return m.ramStart }

// RAMSize returns the DRAM size in bytes.
func (m *Memory) RAMSize() uint64 { return m.ramSize }

// RAMPages returns the number of 4KB DRAM frames.
func (m *Memory) RAMPages() uint64 { return m.ramSize >> PageShift }

// InRAM reports whether pa lies within the DRAM region. This is the
// "allowed memory" predicate the specification uses to pick Normal vs
// Device attributes.
func (m *Memory) InRAM(pa PhysAddr) bool {
	return pa >= m.ramStart && uint64(pa-m.ramStart) < m.ramSize
}

// InMMIO reports whether pa lies in the MMIO hole.
func (m *Memory) InMMIO(pa PhysAddr) bool { return pa < m.mmioEnd }

// slot returns the flat-array slot for pa, or nil if pa lies outside
// both declared regions.
func (m *Memory) slot(pa PhysAddr) *atomic.Pointer[frameCell] {
	if off := uint64(pa - m.ramStart); off < m.ramSize {
		return &m.ram[off>>PageShift]
	}
	if pa < m.mmioEnd {
		return &m.mmio[pa>>PageShift]
	}
	return nil
}

// frame returns the backing cell for pa, allocating it on first use.
// The hot path is a lock-free array-indexed load.
func (m *Memory) frame(pa PhysAddr) *frameCell {
	if s := m.slot(pa); s != nil {
		if c := s.Load(); c != nil {
			return c
		}
		return m.frameSlow(s, PhysToPFN(pa))
	}
	return m.frameOut(PhysToPFN(pa))
}

func (m *Memory) frameSlow(s *atomic.Pointer[frameCell], pfn PFN) *frameCell {
	c := new(frameCell)
	if s.CompareAndSwap(nil, c) {
		m.recordTouch(pfn)
		return c
	}
	return s.Load()
}

func (m *Memory) frameOut(pfn PFN) *frameCell {
	if c, ok := m.out.Load(pfn); ok {
		return c.(*frameCell)
	}
	c, loaded := m.out.LoadOrStore(pfn, new(frameCell))
	if !loaded {
		m.recordTouch(pfn)
	}
	return c.(*frameCell)
}

func (m *Memory) recordTouch(pfn PFN) {
	m.nframes.Add(1)
	m.touchMu.Lock()
	m.touched = append(m.touched, pfn)
	m.touchMu.Unlock()
}

// peek returns the cell for pfn without allocating, or nil if the
// frame has never been touched.
func (m *Memory) peek(pfn PFN) *frameCell {
	if s := m.slot(pfn.Phys()); s != nil {
		return s.Load()
	}
	if c, ok := m.out.Load(pfn); ok {
		return c.(*frameCell)
	}
	return nil
}

// touchCount returns the current length of the first-touch log.
func (m *Memory) touchCount() int {
	m.touchMu.Lock()
	n := len(m.touched)
	m.touchMu.Unlock()
	return n
}

// touchedRange copies log entries [i, j).
func (m *Memory) touchedRange(i, j int) []PFN {
	m.touchMu.Lock()
	out := append([]PFN(nil), m.touched[i:j]...)
	m.touchMu.Unlock()
	return out
}

// Read64 loads the 64-bit word at pa, which must be 8-byte aligned.
func (m *Memory) Read64(pa PhysAddr) uint64 {
	if pa&7 != 0 {
		panic(fmt.Sprintf("arch: unaligned Read64 at %#x", uint64(pa)))
	}
	return atomic.LoadUint64(&m.frame(pa).f[(pa&PageMask)>>3])
}

// Write64 stores the 64-bit word v at pa, which must be 8-byte aligned.
func (m *Memory) Write64(pa PhysAddr, v uint64) {
	if pa&7 != 0 {
		panic(fmt.Sprintf("arch: unaligned Write64 at %#x", uint64(pa)))
	}
	c := m.frame(pa)
	i := (pa & PageMask) >> 3
	atomic.StoreUint64(&c.f[i], v)
	c.blocks[i/BlockWords].Add(1)
	c.gen.Add(1)
}

// word returns a stable pointer to the word at pa, allocating its frame
// on first use; loads through it must be atomic. Frames are never
// freed or replaced, so the pointer stays the word's for good.
func (m *Memory) word(pa PhysAddr) *uint64 {
	return &m.frame(pa).f[(pa&PageMask)>>3]
}

// ReadPTE loads the descriptor at index idx of the table page at
// table.
func (m *Memory) ReadPTE(table PhysAddr, idx int) PTE {
	return PTE(m.Read64(table + PhysAddr(idx*8)))
}

// ReadFrame copies the whole frame containing pa into dst in one frame
// lookup. Bulk readers (the ghost page-table interpreter scans all 512
// slots of every table page) pay one map access instead of one per
// word, and write straight into the buffer they keep; the per-word
// loads stay atomic so the copy is safe against racing writers, though
// as with any multi-word read it is not a snapshot.
func (m *Memory) ReadFrame(pa PhysAddr, dst *Frame) {
	c := m.frame(pa)
	for i := range c.f {
		dst[i] = atomic.LoadUint64(&c.f[i])
	}
}

// WritePTE stores a descriptor at index idx of the table page at
// table.
func (m *Memory) WritePTE(table PhysAddr, idx int, p PTE) {
	m.Write64(table+PhysAddr(idx*8), uint64(p))
}

// BlockGens records into gens the write generation of each block of
// the frame containing pa. A reader records them before reading the
// frame, so that DiffBlocks can later re-read only the blocks written
// since.
func (m *Memory) BlockGens(pa PhysAddr, gens *[FrameBlocks]uint64) {
	c := m.frame(pa)
	for b := range gens {
		gens[b] = c.blocks[b].Load()
	}
}

// DiffBlocks brings dst up to date with the frame containing pa,
// reading only the blocks whose generation differs from the one gens
// recorded: it records each such block's new generation, then reports
// every word of the block that differs from dst to changed, as the
// descriptor dst held and the one the frame holds now, and stores it
// into dst. Like ReadFrame it is not a snapshot against racing
// writers, but each word is read once, so what changed reports is
// exactly what dst ends up holding. A caller whose dst does not match
// the recorded generations (a buffer never filled from the frame)
// first sets gens to values no block can have, such as ^0.
func (m *Memory) DiffBlocks(pa PhysAddr, gens *[FrameBlocks]uint64, dst *Frame, changed func(idx int, was, now PTE)) {
	c := m.frame(pa)
	for b := range gens {
		g := c.blocks[b].Load()
		if g == gens[b] {
			continue
		}
		gens[b] = g
		lo := b * BlockWords
		words, d := c.f[lo:lo+BlockWords], dst[lo:lo+BlockWords]
		for j := range words {
			if w := atomic.LoadUint64(&words[j]); w != d[j] {
				changed(lo+j, PTE(d[j]), PTE(w))
				d[j] = w
			}
		}
	}
}

// ZeroWords zeroes n consecutive 64-bit words starting at pa, which
// must be 8-byte aligned. Unlike ZeroPage the range may start
// mid-frame and run across frame boundaries (the page-scrub paths
// zero at host-supplied addresses); each touched frame costs one
// lookup and one generation bump rather than one per word, and only
// the words that are not already zero are stored.
func (m *Memory) ZeroWords(pa PhysAddr, n int) {
	if pa&7 != 0 {
		panic(fmt.Sprintf("arch: unaligned ZeroWords at %#x", uint64(pa)))
	}
	for n > 0 {
		c := m.frame(pa)
		i := int((pa & PageMask) >> 3)
		k := PTEsPerTable - i
		if k > n {
			k = n
		}
		zeroCell(c, i, i+k)
		pa += PhysAddr(k * 8)
		n -= k
	}
}

// ZeroPage clears the frame containing pa.
func (m *Memory) ZeroPage(pa PhysAddr) {
	zeroCell(m.frame(pa), 0, PTEsPerTable)
}

// zeroCell zeroes words [lo, hi) of the cell; see storeWords.
func zeroCell(c *frameCell, lo, hi int) { storeWords(c, lo, hi, &zeroFrame) }

var zeroFrame Frame

// storeWords stores words [lo, hi) of want into the cell, bumps the
// generation of every block where a word changed, and then bumps the
// frame's generation once, also when no word changed: frame
// generation consumers (snapshot baselines, the ghost abstraction
// cache's dirty scan) key on "this frame was written", block
// generation consumers only on "these words may differ". Each word is
// loaded and stored only when it differs; both stay single-copy
// atomic, so a racing reader sees every word either old or new, as
// with an unconditional store. Scrubbed frames are almost always zero
// already and restored frames differ from their image in a few words,
// which makes the skip the difference between a read pass and a write
// pass.
func storeWords(c *frameCell, lo, hi int, want *Frame) {
	for lo < hi {
		b := lo / BlockWords
		end := min(hi, (b+1)*BlockWords)
		words, w := c.f[lo:end], want[lo:end]
		w = w[:len(words)] // one bounds check per block, not two per word
		stored := false
		for j := range words {
			if atomic.LoadUint64(&words[j]) != w[j] {
				atomic.StoreUint64(&words[j], w[j])
				stored = true
			}
		}
		if stored {
			c.blocks[b].Add(1)
		}
		lo = end
	}
	c.gen.Add(1)
}

// FrameGen returns the current write generation of the frame
// containing pa: the number of stores (Write64/WritePTE calls, plus
// one per ZeroPage or snapshot restore) it has absorbed. A frame never
// written reports 0.
func (m *Memory) FrameGen(pa PhysAddr) uint64 {
	c := m.peek(PhysToPFN(pa))
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// FrameGenRef returns a stable pointer to the frame's generation
// counter, allocating the frame on first use. Holding the pointer lets
// a repeated staleness probe (the ghost abstraction cache checks every
// cached table page on every hook) load the generation with one atomic
// read instead of a frame lookup.
func (m *Memory) FrameGenRef(pa PhysAddr) *atomic.Uint64 {
	return &m.frame(pa).gen
}

// FrameCount returns the number of frames touched so far; used by the
// memory-impact accounting in the benchmarks.
func (m *Memory) FrameCount() int {
	return int(m.nframes.Load())
}
