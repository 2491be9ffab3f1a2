package ghost

import (
	"cmp"
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
// the tree, the generation it last observed (arch.Memory bumps a
// frame's generation on every store) and a copy of the 512 descriptors
// it last interpreted. On each hook it re-reads only the table pages
// whose generation moved, compares them with the stored copies, and
// re-interprets only the runs of changed descriptors, splicing each
// run's meaning over its own input range of the cached mapping. The
// root is one more table page: a write to it costs the same diff. A
// cold cache, or a different root, starts from a root page whose
// stored descriptors are all invalid, so the same diff interprets the
// whole tree.
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
// where its generation counter lives, the generation observed before
// the last read of its entries, the descriptors read then, and the
// position (level, covered input-address base) it occupies in the
// tree. A nil gen marks a free slot, which keeps its descriptor buffer
// for the next table page cached there.
type cachedTable struct {
	gen    *atomic.Uint64
	seen   uint64
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

// Interpret returns the abstraction of the table rooted at root,
// re-interpreting only the descriptors that changed since the previous
// call. The returned abstraction is a copy-on-write clone: the caller
// may hold it indefinitely, and later cache updates will not mutate it.
func (c *PgtableCache) Interpret(m *arch.Memory, root arch.PhysAddr) (AbstractPgtable, CacheOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()

	dirty := c.dirty[:0]
	outcome := CachePartial
	if !c.valid || c.root != root {
		// A cold cache holds only the root page, every stored
		// descriptor invalid: diffing it interprets the whole tree.
		c.tables, c.free, c.slots = nil, nil, make(map[arch.PFN]int, len(c.slots))
		c.abs = AbstractPgtable{}
		c.root, c.valid = root, true
		dirty = append(dirty, c.slot(m, root, arch.StartLevel, 0))
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
		return c.hit(), CacheHit
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
		var cur arch.Frame
		m.ReadFrame(t.pfn.Phys(), &cur)
		old := t.descs
		for idx := range cur {
			if cur[idx] == old[idx] {
				continue
			}
			was, now := old.PTE(idx), cur.PTE(idx)
			if was.Kind(t.level) == arch.EKTable {
				c.drop(was.TableAddr(), t.level+1, t.vaBase|uint64(idx)<<arch.LevelShift(t.level))
			}
			structural = structural || was.Kind(t.level) == arch.EKTable || now.Kind(t.level) == arch.EKTable
			if n := len(runs); n > 0 && runs[n-1].slot == s && runs[n-1].hi == idx {
				runs[n-1].hi++
			} else {
				runs = append(runs, changedRun{slot: s, lo: idx, hi: idx + 1, level: t.level, vaBase: t.vaBase})
			}
		}
		*old = cur
	}
	c.runs = runs

	for _, r := range runs {
		c.sub.maplets = c.sub.maplets[:0]
		pages += c.interpretRange(m, c.tables[r.slot].descs, r.lo, r.hi, r.level, r.vaBase, &c.sub)
		shift := arch.LevelShift(r.level)
		c.abs.Mapping.SpliceRange(r.vaBase|uint64(r.lo)<<shift, uint64(r.hi-r.lo)*arch.LevelPages(r.level),
			c.sub.maplets)
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
		return c.hit(), CacheHit
	default:
		c.stats.PartialWalks++
		if !telemetry.Disabled() {
			ghostCachePartial.Inc()
		}
	}
	return c.abs.Clone(), outcome
}

// hit counts and returns the stored abstraction. Caller holds c.mu.
func (c *PgtableCache) hit() AbstractPgtable {
	c.stats.Hits++
	if !telemetry.Disabled() {
		ghostCacheHits.Inc()
	}
	return c.abs.Clone()
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
// returned from store, so the hit path skips the maplet scan too.
type hostCache struct {
	pgt PgtableCache

	mu        sync.Mutex
	valid     bool
	host      Host
	violation error
}

func (hc *hostCache) abstract(hv *hyp.Hypervisor) (Host, PageSet, error) {
	full, outcome := hc.pgt.Interpret(hv.Mem, hv.HostPGTRoot())
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if outcome != CacheHit || !hc.valid {
		hc.host, hc.violation = deriveHost(hv, &full)
		hc.valid = true
	}
	// The stored violation is returned on hits too: the uncached path
	// re-found an illegal mapping on every hook, and alarm cadence must
	// not depend on whether the cache hit.
	return Host{Present: true, Annot: hc.host.Annot.Clone(), Shared: hc.host.Shared.Clone()},
		full.Footprint, hc.violation
}

// slot caches the table page at table at the given position, with its
// generation observed now — before the caller reads its entries into
// the slot's descriptors — and returns the slot. Observing first pairs
// with Memory bumping the generation after each store: a racing writer
// can at worst make fresh data look stale (forcing a needless re-read
// later), never stale data look fresh. Caller holds c.mu.
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
