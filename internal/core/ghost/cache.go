package ghost

import (
	"cmp"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/telemetry"
)

// This file is the incremental abstraction cache. recordComponent used
// to re-interpret each component's full 4-level table on every lock
// acquire and release — the dominant term of the ghost overhead the
// paper measures in §6. But a table's meaning only changes where
// descriptors are written, so the cache keeps, for every table page of
// the tree, the generations it last observed (arch.Memory bumps a
// 64-word block's and then its frame's generation on every store) and
// a copy of the 512 descriptors it last interpreted. On each hook it
// looks only at the table pages whose frame generation moved, re-reads
// only their blocks whose generation moved, compares them with the
// stored copies, and re-interprets only the runs of changed
// descriptors, splicing each run's meaning over its own input range of
// the cached mapping. The root is one more table page: a write to it
// costs the same diff. A cold cache, or a different root, starts from
// a root page whose stored descriptors are all invalid and whose
// blocks are all marked unseen, so the same diff interprets the whole
// tree.
//
// The walker here is deliberately a separate implementation from
// InterpretPgtable: the Recorder's VerifyCache mode runs both side by
// side and alarms on divergence, which only means something if the two
// paths share no code beyond the descriptor decoding in package arch.

// CacheOutcome classifies one cached interpretation.
type CacheOutcome uint8

const (
	// CacheHit: no descriptor changed; the stored abstraction was
	// returned as is.
	CacheHit CacheOutcome = iota
	// CachePartial: some descriptors changed; only they were
	// re-interpreted and spliced into the stored abstraction.
	CachePartial
	// CacheFull: first use or a different root — the whole tree was
	// re-interpreted.
	CacheFull
)

// cachedTable is the cache's record of one table page: its frame,
// where its generation counter lives, the frame and block generations
// observed before the last read of its entries, the descriptors read
// then, and the position (level, covered input-address base) it
// occupies in the tree. A nil gen marks a free slot, which keeps its
// descriptor buffer for the next table page cached there.
type cachedTable struct {
	gen    *atomic.Uint64
	seen   uint64
	blocks [arch.FrameBlocks]uint64
	descs  *arch.Frame
	pfn    arch.PFN
	level  int
	vaBase uint64
}

// changedRun is a run [lo, hi) of changed descriptors in one table
// page, waiting to be re-interpreted.
type changedRun struct {
	slot, lo, hi, level int
	vaBase              uint64
}

// CacheStats counts a cache's interpretation outcomes.
type CacheStats struct {
	Hits         uint64
	PartialWalks uint64
	FullWalks    uint64
	// PagesWalked is the number of table pages (re-)read across all
	// walks and descriptor diffs — the work the cache actually did,
	// against which hits measure the work it avoided.
	PagesWalked uint64
}

// add accumulates o into s.
func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.PartialWalks += o.PartialWalks
	s.FullWalks += o.FullWalks
	s.PagesWalked += o.PagesWalked
}

// PgtableCache is the incremental interpretation cache for one page
// table. It has its own lock: hooks already run under the component's
// spinlock, but the oracle must stay sound against a buggy hypervisor
// whose locking is broken, so the cache never relies on the
// component's lock for its own consistency.
type PgtableCache struct {
	mu    sync.Mutex
	valid bool
	root  arch.PhysAddr
	// tables holds every cached table page, indexed by slot; slots
	// maps a table page's frame to its slot, and free lists the slots
	// whose table pages left the tree.
	tables []cachedTable
	free   []int
	slots  map[arch.PFN]int
	abs    AbstractPgtable
	stats  CacheStats

	// Scratch reused across calls.
	dirty []int
	runs  []changedRun
	sub   Mapping
}

// vaRange is a range of input addresses: nrPages pages from va.
type vaRange struct {
	va, nrPages uint64
}

// Interpret returns the abstraction of the table rooted at root,
// re-interpreting only the descriptors that changed since the previous
// call. The returned abstraction is a copy-on-write clone: the caller
// may hold it indefinitely, and later cache updates will not mutate it.
// The first splice after a hand-out copies the cached mapping once; the
// others of the same call splice in place.
func (c *PgtableCache) Interpret(m *arch.Memory, root arch.PhysAddr) (AbstractPgtable, CacheOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	outcome := c.update(m, root, nil)
	return c.abs.Clone(), outcome
}

// update brings c.abs up to date with the table rooted at root,
// re-interpreting only the descriptors that changed since the previous
// call, and counts the outcome. On a partial walk it also appends to
// spliced (when non-nil) the input range of every run of descriptors
// it re-interpreted: outside those ranges c.abs.Mapping is what it was
// before. c.abs.Footprint is replaced, never changed in place, so it
// may be handed out without a copy. Caller holds c.mu.
func (c *PgtableCache) update(m *arch.Memory, root arch.PhysAddr, spliced *[]vaRange) CacheOutcome {
	dirty := c.dirty[:0]
	outcome := CachePartial
	if !c.valid || c.root != root {
		// A cold cache holds only the root page, every stored
		// descriptor invalid and every block unseen: diffing it
		// interprets the whole tree.
		c.tables, c.free, c.slots = nil, nil, make(map[arch.PFN]int, len(c.slots))
		c.abs = AbstractPgtable{}
		c.root, c.valid = root, true
		s := c.slot(m, root, arch.StartLevel, 0)
		for b := range c.tables[s].blocks {
			c.tables[s].blocks[b] = ^uint64(0)
		}
		dirty = append(dirty, s)
		outcome = CacheFull
	} else {
		for s := range c.tables {
			if t := &c.tables[s]; t.gen != nil && t.gen.Load() != t.seen {
				dirty = append(dirty, s)
			}
		}
	}
	c.dirty = dirty
	if len(dirty) == 0 {
		c.hit()
		return CacheHit
	}

	// Diff the dirty pages top-down, so a page's stored copy is still
	// the one its cached subtree was built from when an ancestor's
	// changed table descriptor drops that subtree. Every drop happens
	// before any descent, so the tables a descent re-adds (a freed frame
	// reused elsewhere) are never dropped again.
	slices.SortFunc(dirty, func(a, b int) int {
		ta, tb := &c.tables[a], &c.tables[b]
		if ta.level != tb.level {
			return ta.level - tb.level
		}
		return cmp.Compare(ta.vaBase, tb.vaBase)
	})
	runs := c.runs[:0]
	structural := false
	pages := 0
	for _, s := range dirty {
		t := &c.tables[s]
		if t.gen == nil {
			continue // dropped with an ancestor's subtree above
		}
		pages++
		t.seen = t.gen.Load()
		// The diff stores each changed descriptor into t.descs as it
		// reports it. drop never reaches t itself (levels only grow
		// below it), so the subtrees it walks still hold the
		// descriptors they were built from.
		level, vaBase := t.level, t.vaBase
		m.DiffBlocks(t.pfn.Phys(), &t.blocks, t.descs, func(idx int, was, now arch.PTE) {
			if was.Kind(level) == arch.EKTable {
				c.drop(was.TableAddr(), level+1, vaBase|uint64(idx)<<arch.LevelShift(level))
			}
			structural = structural || was.Kind(level) == arch.EKTable || now.Kind(level) == arch.EKTable
			if n := len(runs); n > 0 && runs[n-1].slot == s && runs[n-1].hi == idx {
				runs[n-1].hi++
			} else {
				runs = append(runs, changedRun{slot: s, lo: idx, hi: idx + 1, level: level, vaBase: vaBase})
			}
		})
	}
	c.runs = runs

	for _, r := range runs {
		c.sub.maplets = c.sub.maplets[:0]
		pages += c.interpretRange(m, c.tables[r.slot].descs, r.lo, r.hi, r.level, r.vaBase, &c.sub)
		rng := vaRange{va: r.vaBase | uint64(r.lo)<<arch.LevelShift(r.level),
			nrPages: uint64(r.hi-r.lo) * arch.LevelPages(r.level)}
		c.abs.Mapping.SpliceRange(rng.va, rng.nrPages, c.sub.maplets)
		if spliced != nil {
			*spliced = append(*spliced, rng)
		}
	}
	if structural || outcome == CacheFull {
		c.abs.Footprint = c.footprint()
	}

	c.stats.PagesWalked += uint64(pages)
	if !telemetry.Disabled() {
		ghostCachePages.Add(uint64(pages))
	}
	switch {
	case outcome == CacheFull:
		c.stats.FullWalks++
		if !telemetry.Disabled() {
			ghostCacheMisses.Inc()
		}
	case len(runs) == 0:
		// Generations moved but every descriptor read back the same
		// (a snapshot restore rewriting a frame with its old contents).
		c.hit()
		return CacheHit
	default:
		c.stats.PartialWalks++
		if !telemetry.Disabled() {
			ghostCachePartial.Inc()
		}
	}
	return outcome
}

// hit counts a hit. Caller holds c.mu.
func (c *PgtableCache) hit() {
	c.stats.Hits++
	if !telemetry.Disabled() {
		ghostCacheHits.Inc()
	}
}

// Invalidate empties the cache; the next Interpret is a full walk.
// Used when a guest's table is destroyed at teardown.
func (c *PgtableCache) Invalidate() {
	c.mu.Lock()
	c.valid = false
	c.tables, c.free, c.slots = nil, nil, nil
	c.abs = AbstractPgtable{}
	c.mu.Unlock()
}

// Stats returns the cache's counters.
func (c *PgtableCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// hostCache wraps a PgtableCache with the ghost_host projection: on a
// hit the derived Annot/Shared components and the legality verdict are
// returned from store, so the hit path skips the maplet scan too; on a
// partial walk only the input ranges the walk spliced are re-projected
// and re-checked. The full host interpretation never leaves the cache:
// it is read under the page-table cache's own lock and only the
// projection and the footprint are handed out, so the walk's splices
// land in place instead of copying the host's largest mapping.
type hostCache struct {
	pgt PgtableCache

	mu        sync.Mutex
	valid     bool
	host      Host
	violation error

	// Scratch reused across calls.
	spliced       []vaRange
	sub           []Maplet
	annot, shared []Maplet
}

//ghost:requires lock=host
func (hc *hostCache) abstract(hv *hyp.Hypervisor) (Host, PageSet, error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	hc.pgt.mu.Lock()
	defer hc.pgt.mu.Unlock()
	hc.spliced = hc.spliced[:0]
	outcome := hc.pgt.update(hv.Mem, hv.HostPGTRoot(), &hc.spliced)
	full := &hc.pgt.abs
	switch {
	case hc.valid && outcome == CacheHit:
		// The stored violation is returned on hits too: the uncached
		// path re-found an illegal mapping on every hook, and alarm
		// cadence must not depend on whether the cache hit.
	case hc.valid && outcome == CachePartial && hc.violation == nil && hc.rederive(hv, full):
	default:
		hc.host, hc.violation = deriveHost(hv, full)
		hc.valid = true
	}
	return Host{Present: true, Annot: hc.host.Annot.Clone(), Shared: hc.host.Shared.Clone()},
		full.Footprint, hc.violation
}

// rederive brings the stored projection up to date with full by
// re-projecting only the ranges the last walk spliced: everywhere else
// full is unchanged, and so, page by page, are Annot, Shared and the
// legality of the dropped owned mappings. It reports false when a
// spliced range holds an illegal mapping, leaving the projection half
// updated: the caller then re-derives it whole, so the alarm names the
// same first violation the reference path reports.
//
// Caller holds hc.mu and hc.pgt.mu.
func (hc *hostCache) rederive(hv *hyp.Hypervisor, full *AbstractPgtable) bool {
	for _, r := range hc.spliced {
		hc.sub = full.Mapping.appendRange(hc.sub[:0], r.va, r.nrPages)
		annot, shared := hc.annot[:0], hc.shared[:0]
		for _, ml := range hc.sub {
			switch ml.Target.Kind {
			case TargetAnnotated:
				annot = append(annot, ml)
			case TargetMapped:
				switch ml.Target.Attrs.State {
				case arch.StateSharedOwned, arch.StateSharedBorrowed:
					shared = append(shared, ml)
				case arch.StateOwned:
					if checkHostOwnedLegal(hv, ml) != nil {
						return false
					}
				}
			}
		}
		hc.annot, hc.shared = annot, shared
		// Mapping-on-demand faults change only owned pages; leaving
		// the projections untouched then saves rebuilding them.
		if !hc.host.Annot.rangeEqual(r.va, r.nrPages, annot) {
			hc.host.Annot.SpliceRange(r.va, r.nrPages, annot)
		}
		if !hc.host.Shared.rangeEqual(r.va, r.nrPages, shared) {
			hc.host.Shared.SpliceRange(r.va, r.nrPages, shared)
		}
	}
	return true
}

// vmsCache is the VM table's counterpart of PgtableCache. It keeps the
// last VM-table abstraction and at every hook re-reads every field of
// every live VM, comparing in place against the recorded entry: a VM
// whose metadata reads back unchanged keeps its recorded *VMInfo, an
// unchanged reclaim set keeps its PageSet, and an unchanged table is
// returned as is, without allocating. Since every field is still read,
// a change made without the lock is still seen. Handing out the same
// pointers again is sound because recorded VMInfos are immutable (see
// VMInfo); the table map is never written once returned either — a
// change builds a new one.
type vmsCache struct {
	mu    sync.Mutex
	valid bool
	vms   VMs
}

//ghost:requires lock=vms
func (vc *vmsCache) abstract(hv *hyp.Hypervisor) VMs {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if !vc.valid {
		vc.vms, vc.valid = AbstractVMs(hv), true
		return vc.vms
	}
	prev := vc.vms
	table := prev.Table
	copied := false
	var live [hyp.MaxVMs]hyp.Handle
	nLive := 0
	for slot := 0; slot < hyp.MaxVMs; slot++ {
		vm := hv.VMSnapshot(slot)
		if vm == nil {
			continue
		}
		live[nLive] = vm.Handle
		nLive++
		if old := table[vm.Handle]; old != nil && vmCurrent(old, vm) {
			continue
		}
		if !copied {
			table, copied = maps.Clone(prev.Table), true
		}
		table[vm.Handle] = abstractVM(vm)
	}
	// Drop the entries of VMs that left the table.
	for h := range table {
		if !slices.Contains(live[:nLive], h) {
			if !copied {
				table, copied = maps.Clone(prev.Table), true
			}
			delete(table, h)
		}
	}
	reclaim := prev.Reclaim
	if !reclaim.equalsAscending(hv.ReclaimablePFNs()) {
		reclaim = abstractReclaim(hv)
	} else if !copied {
		return prev
	}
	vc.vms = VMs{Present: true, Table: table, Reclaim: reclaim}
	return vc.vms
}

// vmCurrent reports whether the recorded entry old still describes vm,
// field by field as AbstractVMs would record it.
//
//ghost:requires lock=vms
func vmCurrent(old *VMInfo, vm *hyp.VM) bool {
	if old.Handle != vm.Handle || old.NrVCPUs != vm.NrVCPUs || len(old.VCPUs) != len(vm.VCPUs) ||
		!vm.DonatedEqual(old.Donated) {
		return false
	}
	for i, vc := range vm.VCPUs {
		o := &old.VCPUs[i]
		loadedOn := vc.LoadedOn
		if o.Initialized != vc.Initialized || o.LoadedOn != loadedOn || o.Regs != vc.Regs {
			return false
		}
		// A loaded vCPU's memcache is recorded in its CPU's locals.
		if loadedOn < 0 && !vc.MC.PagesEqual(o.MC) || loadedOn >= 0 && len(o.MC) != 0 {
			return false
		}
	}
	return true
}

// slot caches the table page at table at the given position, with its
// frame and block generations observed now — before the caller reads
// its entries into the slot's descriptors — and returns the slot.
// Observing first pairs with Memory bumping the generations after each
// store: a racing writer can at worst make fresh data look stale
// (forcing a needless re-read later), never stale data look fresh.
// Caller holds c.mu.
func (c *PgtableCache) slot(m *arch.Memory, table arch.PhysAddr, level int, vaBase uint64) int {
	pfn := arch.PhysToPFN(table)
	// A frame already cached elsewhere can only be reached twice
	// through a corrupted tree; the later position wins, as in a map.
	s, ok := c.slots[pfn]
	if !ok {
		if n := len(c.free); n > 0 {
			s, c.free = c.free[n-1], c.free[:n-1]
		} else {
			s = len(c.tables)
			c.tables = append(c.tables, cachedTable{descs: new(arch.Frame)})
		}
		c.slots[pfn] = s
	}
	gen := m.FrameGenRef(table)
	t := &c.tables[s]
	*t = cachedTable{gen: gen, seen: gen.Load(), descs: t.descs, pfn: pfn, level: level, vaBase: vaBase}
	m.BlockGens(table, &t.blocks)
	return s
}

// interpretRange extends out with the meaning of descriptors [lo, hi)
// of a table page at the given level and input-address base, reading
// (and caching) the whole subtree of every next-level table they point
// to. Returns the number of table pages read. Caller holds c.mu.
func (c *PgtableCache) interpretRange(m *arch.Memory, descs *arch.Frame, lo, hi, level int, vaBase uint64,
	out *Mapping) int {
	n := 0
	nrPages := arch.LevelPages(level)
	shift := arch.LevelShift(level)
	for idx := lo; idx < hi; idx++ {
		va := vaBase | uint64(idx)<<shift
		pte := descs.PTE(idx)
		switch pte.Kind(level) {
		case arch.EKTable:
			next := c.tables[c.slot(m, pte.TableAddr(), level+1, va)].descs
			m.ReadFrame(pte.TableAddr(), next)
			n += 1 + c.interpretRange(m, next, 0, arch.PTEsPerTable, level+1, va, out)
		case arch.EKBlock, arch.EKPage:
			out.Extend(va, nrPages, Mapped(pte.OutputAddr(level), pte.Attrs()))
		case arch.EKAnnotated:
			out.Extend(va, nrPages, Annotated(pte.OwnerID()))
		case arch.EKInvalid:
			// Unmapped, unowned: not part of the extension.
		case arch.EKReserved:
			out.Extend(va, nrPages, Annotated(0xFF))
		}
	}
	return n
}

// drop forgets the cached table page at table and everything below
// it, found through its stored descriptors, provided the cache holds
// it at the given position. Caller holds c.mu.
func (c *PgtableCache) drop(table arch.PhysAddr, level int, vaBase uint64) {
	pfn := arch.PhysToPFN(table)
	s, ok := c.slots[pfn]
	if !ok || c.tables[s].level != level || c.tables[s].vaBase != vaBase {
		return
	}
	descs := c.tables[s].descs
	shift := arch.LevelShift(level)
	for idx := range descs {
		if pte := descs.PTE(idx); pte.Kind(level) == arch.EKTable {
			c.drop(pte.TableAddr(), level+1, vaBase|uint64(idx)<<shift)
		}
	}
	delete(c.slots, pfn)
	c.tables[s].gen = nil
	c.free = append(c.free, s)
}

// footprint builds the footprint set from the cached table pages.
// Caller holds c.mu.
func (c *PgtableCache) footprint() PageSet {
	pfns := make([]arch.PFN, 0, len(c.slots))
	for pfn := range c.slots {
		pfns = append(pfns, pfn)
	}
	slices.Sort(pfns)
	var s PageSet
	for _, pfn := range pfns {
		s.Add(pfn)
	}
	return s
}
