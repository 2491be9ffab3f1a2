package arch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// Span names for the TLB maintenance paths: miss-path fills and
// invalidation sweeps, both under the TLB mutex.
var (
	spanTLBFill       = trace.NewName("tlb.fill")
	spanTLBInvalidate = trace.NewName("tlb.invalidate")
)

// This file is the software TLB: a model of the hardware translation
// caches whose maintenance pKVM is responsible for. Successful walks
// are cached keyed by (VMID, root, stage, IA page) and served without
// re-walking — deliberately including after the tables changed, because
// that is what hardware does: a translation stays live until a TLBI
// covering it is issued. Forgetting that TLBI (the break-before-make
// discipline) is the canonical hypervisor bug class, and modelling the
// cache faithfully is what lets the ghost oracle observe it
// (Recorder.FailStaleTLB) instead of the bug staying invisible in a
// walk-always model.
//
// The model is plain on purpose: each VMID's translations in fill
// order with a page index, under one mutex. A fill walks the tables
// while holding it, so fills and TLBIs are totally ordered. A mutator
// orders its writes as store < TLBI, so a fill before the TLBI is swept
// by it and a fill after it reads the new tables: stale entries exist
// if and only if a required TLBI was never issued.
//
// Each entry records the descriptors its walk read: for each level, a
// pointer to the descriptor word in memory and the value it loaded. A
// walk is a function of the words it read (the root is part of the
// key), so while every recorded word still holds its value the walk
// provably gives the same result: CheckCoherence and InvalidateStale
// skip those entries and LookupLeaf may serve them to software reads.
// Frames are never freed or replaced, so a recorded pointer names the
// same word for good. A store elsewhere in the same table page, which
// is what the hypervisor's maps and unmaps mostly are, leaves the entry
// fresh.

// VMID tags a translation regime: which (virtual) machine's tables a
// cached walk came from. Mirrors the VMID field hardware tags stage 2
// TLB entries with; the hypervisor's own EL2 stage 1 regime gets a
// reserved sentinel value so its entries are tagged too.
type VMID uint16

const (
	tlbMaxDeps = LastLevel - StartLevel + 1
	// tlbCapacity bounds each VMID's entries. A fill into a full set
	// first evicts the oldest quarter, so what is evicted depends only
	// on the sequence of fills and TLBIs.
	tlbCapacity = 512
)

// TLB traffic: hits and misses of hardware-path translations
// (TLB.Walk). Every miss is one tlb.fill span.
var (
	telTLBHits   = telemetry.NewCounter("tlb_hits_total")
	telTLBMisses = telemetry.NewCounter("tlb_misses_total")
)

// tlbKey names one cached translation within a VMID's set. A set
// holds one entry per page: a fill under another root or stage
// replaces it.
type tlbKey struct {
	root  PhysAddr
	page  uint64 // ia >> PageShift
	stage Stage
}

// tlbDep is one descriptor the cached walk read: the word it loaded
// and the value it read.
type tlbDep struct {
	word *uint64
	val  uint64
}

// tlbEntry is one cached translation.
type tlbEntry struct {
	key   tlbKey
	pte   PTE // the terminal descriptor; valid leaf once cached
	level int
	cpu   int // CPU whose walk filled the entry (diagnostics)
	deps  [tlbMaxDeps]tlbDep
	ndeps int
}

// depsFresh reports whether every descriptor the cached walk read
// still holds the value it read.
func (e *tlbEntry) depsFresh() bool {
	for i := 0; i < e.ndeps; i++ {
		if atomic.LoadUint64(e.deps[i].word) != e.deps[i].val {
			return false
		}
	}
	return true
}

// oa is the output address the entry translates its page to.
func (e *tlbEntry) oa() PhysAddr {
	return e.pte.OutputAddr(e.level) + PhysAddr((e.key.page<<PageShift)&(LevelSize(e.level)-1))
}

// overlaps reports whether the leaf e caches covers any address in
// [ia, end). An entry cached from a block leaf matches any address the
// block covers, not just the page that filled it.
func (e *tlbEntry) overlaps(ia, end uint64) bool {
	size := LevelSize(e.level)
	base := (e.key.page << PageShift) &^ (size - 1)
	return base < end && ia < base+size
}

// tlbSet is one VMID's translations in fill order, with an index from
// page to position.
type tlbSet struct {
	vmid    VMID
	entries []tlbEntry
	index   map[uint64]int
}

// filter keeps, in order, the entries keep accepts; keep may update an
// entry in place before accepting it.
func (s *tlbSet) filter(keep func(*tlbEntry) bool) {
	w := 0
	for r := range s.entries {
		e := &s.entries[r]
		if !keep(e) {
			delete(s.index, e.key.page)
			continue
		}
		if w != r {
			s.entries[w] = *e
			s.index[e.key.page] = w
		}
		w++
	}
	clear(s.entries[w:]) // drop the descriptor pointers
	s.entries = s.entries[:w]
}

// TLB is the software translation cache. One instance serves all CPUs
// of a system: entries record their filling CPU, and every modelled
// invalidation is the broadcast (inner-shareable) form, the only kind
// this hypervisor issues.
type TLB struct {
	mem  *Memory
	mu   sync.Mutex
	sets []*tlbSet // in order of first use

	// tracer, when attached, receives fill and invalidation spans on
	// lane; see SetTracer.
	tracer *trace.Tracer
	lane   int

	// dom is the owning system's preemption domain; see SetDomain.
	dom *preempt.Domain
}

// NewTLB builds a TLB over the given memory. A nil *TLB is a valid
// empty cache for the software paths: lookups miss and maintenance is
// a no-op, so tables built without a system need no TLB.
func NewTLB(m *Memory) *TLB {
	return &TLB{mem: m}
}

// SetTracer attaches a span tracer covering fills and invalidations.
// Install once at boot; a nil tracer stays untraced.
func (t *TLB) SetTracer(tr *trace.Tracer, lane int) {
	t.tracer, t.lane = tr, lane
}

// SetDomain attaches the TLB to its system's preemption domain, where
// every invalidation reports the TLBI point its caller passes. Install
// once at boot.
func (t *TLB) SetDomain(d *preempt.Domain) { t.dom = d }

// find returns vmid's entries, nil before its first fill. A system
// has a handful of VMIDs, so a scan beats hashing. Caller holds t.mu.
func (t *TLB) find(vmid VMID) *tlbSet {
	for _, s := range t.sets {
		if s.vmid == vmid {
			return s
		}
	}
	return nil
}

// lookup returns the position of key's entry in s, if cached. Caller
// holds t.mu.
func (s *tlbSet) lookup(key tlbKey) (int, bool) {
	if s == nil {
		return 0, false
	}
	i, ok := s.index[key.page]
	return i, ok && s.entries[i].key == key
}

// Walk is the hardware translation path: consult the cache, walk and
// fill on a miss. A hit is served without looking at the tables — the
// architectural behaviour that makes a skipped TLBI observable.
func (t *TLB) Walk(cpu int, root PhysAddr, stage Stage, vmid VMID, ia uint64, acc Access) (WalkResult, *Fault) {
	if !CanonicalIA(ia) {
		return WalkResult{}, &Fault{Kind: FaultAddressSize, Level: StartLevel, Addr: ia}
	}
	key := tlbKey{root: root, page: ia >> PageShift, stage: stage}
	t.mu.Lock()
	s := t.find(vmid)
	if i, ok := s.lookup(key); ok {
		pte, level := s.entries[i].pte, s.entries[i].level
		t.mu.Unlock()
		if !telemetry.Disabled() {
			telTLBHits.Inc()
		}
		return leafResult(pte, level, ia, acc)
	}
	pte, level := t.fill(cpu, vmid, s, key)
	t.mu.Unlock()
	if !telemetry.Disabled() {
		telTLBMisses.Inc()
	}
	return leafResult(pte, level, ia, acc)
}

// fill walks key's page and, when the walk ends at a valid leaf,
// appends the translation to vmid's set s (nil before its first fill).
// Valid translations are cacheable even when the access kind at hand
// permission-faults: the TLB caches the walk, the permission check
// happens per access. Caller holds t.mu.
func (t *TLB) fill(cpu int, vmid VMID, s *tlbSet, key tlbKey) (PTE, int) {
	sp := t.tracer.Begin(t.lane, spanTLBFill)
	defer sp.End()
	e := tlbEntry{key: key, cpu: cpu}
	t.walk(&e)
	if k := e.pte.Kind(e.level); k != EKBlock && k != EKPage {
		return e.pte, e.level
	}
	if s == nil {
		s = &tlbSet{vmid: vmid, index: map[uint64]int{}}
		t.sets = append(t.sets, s)
	}
	if _, ok := s.index[key.page]; ok { // cached under another root or stage
		s.filter(func(o *tlbEntry) bool { return o.key.page != key.page })
	}
	if len(s.entries) == tlbCapacity {
		n := 0
		s.filter(func(*tlbEntry) bool { n++; return n > tlbCapacity/4 })
	}
	s.index[key.page] = len(s.entries)
	s.entries = append(s.entries, e)
	return e.pte, e.level
}

// walk is WalkLeaf for e's page with dependency recording: each
// descriptor is loaded once, and the word and the value it held are
// recorded, so an unchanged value later proves the read is still
// current.
func (t *TLB) walk(e *tlbEntry) {
	ia := e.key.page << PageShift
	table := e.key.root
	for level := StartLevel; level <= LastLevel; level++ {
		w := t.mem.word(table + PhysAddr(IndexAt(ia, level)*8))
		pte := PTE(atomic.LoadUint64(w))
		e.deps[level-StartLevel] = tlbDep{word: w, val: uint64(pte)}
		if pte.Kind(level) != EKTable {
			e.pte, e.level, e.ndeps = pte, level, level-StartLevel+1
			return
		}
		table = pte.TableAddr()
	}
	panic("arch: walk ran past the last level")
}

// LookupLeaf is the software lookup path serving pgtable.GetLeaf: the
// hypervisor reads its own tables with ordinary loads, not through the
// hardware TLB, so unlike Walk a cached entry is only served after
// revalidating the descriptors its walk read — a software read must never
// observe a stale descriptor, even when a TLBI was (buggily) skipped.
// Misses do not fill; entries come from hardware walks.
func (t *TLB) LookupLeaf(root PhysAddr, stage Stage, vmid VMID, ia uint64) (PTE, int, bool) {
	if t == nil {
		return 0, 0, false
	}
	key := tlbKey{root: root, page: ia >> PageShift, stage: stage}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.find(vmid)
	i, ok := s.lookup(key)
	if !ok || !s.entries[i].depsFresh() {
		return 0, 0, false
	}
	return s.entries[i].pte, s.entries[i].level, true
}

// InvalidateRange drops every cached translation tagged vmid whose
// leaf coverage intersects [ia, ia+size) — Arm's TLBI IPAS2E1IS /
// VAE2IS by-address forms. Each invalidation first crosses p, the
// emitting call's TLBI point (nil crosses nothing).
func (t *TLB) InvalidateRange(p *preempt.Point, vmid VMID, ia, size uint64) {
	if t == nil {
		return
	}
	t.dom.Fire(p)
	end := ia + size
	t.sweep(vmid, false, func(e *tlbEntry) bool { return !e.overlaps(ia, end) })
}

// InvalidateIPA drops the cached translations of one page — the
// page-granule TLBI.
func (t *TLB) InvalidateIPA(p *preempt.Point, vmid VMID, ia uint64) {
	t.InvalidateRange(p, vmid, ia, PageSize)
}

// InvalidateVMID drops every cached translation tagged vmid — Arm's
// TLBI VMALLS12E1IS, issued when a VM's stage 2 is torn down.
func (t *TLB) InvalidateVMID(p *preempt.Point, vmid VMID) {
	if t == nil {
		return
	}
	t.dom.Fire(p)
	t.sweep(vmid, false, func(*tlbEntry) bool { return false })
}

// InvalidateAll drops everything — TLBI ALLE1IS.
func (t *TLB) InvalidateAll(p *preempt.Point) {
	if t == nil {
		return
	}
	t.dom.Fire(p)
	t.sweep(0, true, func(*tlbEntry) bool { return false })
}

// InvalidateStale drops every cached translation one of whose recorded
// descriptors has changed since the fill. A snapshot restore rewrites
// descriptors in place, so this one sweep is the whole TLB story of a
// restore: entries whose walks read restored descriptors vanish, the
// others stay warm across executions. (Walk hits do not
// check dependencies, so without the sweep the next execution would
// translate through the previous one's tables and trip
// CheckCoherence.)
func (t *TLB) InvalidateStale(p *preempt.Point) {
	if t == nil {
		return
	}
	t.dom.Fire(p)
	t.sweep(0, true, (*tlbEntry).depsFresh)
}

// sweep keeps the entries of vmid (of every VMID when all is set) that
// keep accepts.
func (t *TLB) sweep(vmid VMID, all bool, keep func(*tlbEntry) bool) {
	sp := t.tracer.Begin(t.lane, spanTLBInvalidate)
	defer sp.End()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.sets {
		if all || s.vmid == vmid {
			s.filter(keep)
		}
	}
}

// Len returns the number of live entries (testing and diagnostics).
func (t *TLB) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.sets {
		n += len(s.entries)
	}
	return n
}

// CheckCoherence re-walks vmid's entries against the current tables
// and returns, in fill order, a description of each whose cached
// translation disagrees — the evidence behind the ghost oracle's
// FailStaleTLB alarm. Entries whose recorded descriptors are unchanged
// are skipped; a re-walk that yields the same translation refreshes the
// entry in place. Stale entries are reported once and dropped.
//
// The caller must hold the lock of the component owning vmid's tables
// so they are quiescent during the re-walks; the ghost oracle runs
// this from its LockReleasing hook, which the hypervisor calls with
// the component lock still held.
//
//ghost:requires lock=dynamic
func (t *TLB) CheckCoherence(vmid VMID) []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.find(vmid)
	if s == nil {
		return nil
	}
	var out []string
	s.filter(func(e *tlbEntry) bool {
		if e.depsFresh() {
			return true
		}
		fresh := tlbEntry{key: e.key, cpu: e.cpu}
		t.walk(&fresh)
		var now string
		if k := fresh.pte.Kind(fresh.level); k != EKBlock && k != EKPage {
			now = fmt.Sprintf("a fresh walk finds a %v entry", k)
		} else if fresh.oa() != e.oa() || fresh.pte.Attrs() != e.pte.Attrs() {
			now = fmt.Sprintf("the tables now give pa=%#x [%v] (level %d)",
				uint64(fresh.oa()), fresh.pte.Attrs(), fresh.level)
		} else {
			*e = fresh // the same translation, perhaps through a split
			return true
		}
		out = append(out, fmt.Sprintf(
			"vmid %d ia %#x: TLB holds pa=%#x [%v] (level %d, filled by cpu %d) but %s — a required TLBI was not issued",
			vmid, e.key.page<<PageShift, uint64(e.oa()), e.pte.Attrs(), e.level, e.cpu, now))
		return false
	})
	return out
}
