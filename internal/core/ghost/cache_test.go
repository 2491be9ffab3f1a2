package ghost

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/mem"
	"ghostspec/internal/pgtable"
)

// mustMatchFull fails unless the cached abstraction equals a fresh
// full interpretation of the same table.
func mustMatchFull(t *testing.T, c *PgtableCache, tbl *pgtable.Table, when string) {
	t.Helper()
	interpretChecked(t, c, tbl.Mem, tbl.Root(), when)
}

// interpretChecked interprets through the cache, fails unless the
// result equals a fresh full interpretation, and returns the outcome.
func interpretChecked(t *testing.T, c *PgtableCache, m *arch.Memory, root arch.PhysAddr, when string) (AbstractPgtable, CacheOutcome) {
	t.Helper()
	got, outcome := c.Interpret(m, root)
	ref := InterpretPgtable(m, root)
	if !EqualMappings(got.Mapping, ref.Mapping) {
		t.Fatalf("%s: cached mapping diverges from full recompute:\n%s",
			when, diffPages(DiffMappings(ref.Mapping, got.Mapping)))
	}
	if !got.Footprint.Equal(ref.Footprint) {
		t.Fatalf("%s: cached footprint %v, full %v", when, got.Footprint, ref.Footprint)
	}
	return got, outcome
}

// handTree is a small stage 2 tree written descriptor by descriptor,
// so a test controls exactly which words change: root[0] → l1,
// l1[1] → l2, l2[0] → t0 and l2[1] → t1, the two level-3 tables each
// holding eight page mappings. spare is an unused frame.
type handTree struct {
	m                           *arch.Memory
	root, l1, l2, t0, t1, spare arch.PhysAddr
}

var handAttrs = arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateOwned}

func newHandTree() *handTree {
	m := arch.NewMemory(arch.DefaultLayout())
	frame := func(i int) arch.PhysAddr { return (arch.PFN(0x48000) + arch.PFN(i)).Phys() }
	h := &handTree{m: m, root: frame(0), l1: frame(1), l2: frame(2), t0: frame(3), t1: frame(4), spare: frame(5)}
	m.WritePTE(h.root, 0, arch.MakeTable(h.l1))
	m.WritePTE(h.l1, 1, arch.MakeTable(h.l2))
	m.WritePTE(h.l2, 0, arch.MakeTable(h.t0))
	m.WritePTE(h.l2, 1, arch.MakeTable(h.t1))
	for i := 0; i < 8; i++ {
		m.WritePTE(h.t0, i, arch.MakeLeaf(arch.LastLevel, arch.PhysAddr(0x4100_0000+i*arch.PageSize), handAttrs))
		m.WritePTE(h.t1, i, arch.MakeLeaf(arch.LastLevel, arch.PhysAddr(0x4200_0000+i*arch.PageSize), handAttrs))
	}
	return h
}

// warm interprets the tree cold and returns the cache's stats after.
func (h *handTree) warm(t *testing.T, c *PgtableCache) CacheStats {
	t.Helper()
	if _, outcome := interpretChecked(t, c, h.m, h.root, "cold"); outcome != CacheFull {
		t.Fatalf("cold interpret: outcome %v, want full", outcome)
	}
	return c.Stats()
}

// TestCacheLeafRewriteReadsOnePage: rewriting one leaf descriptor
// re-reads exactly the one table page holding it.
func TestCacheLeafRewriteReadsOnePage(t *testing.T) {
	h := newHandTree()
	var c PgtableCache
	before := h.warm(t, &c)

	h.m.WritePTE(h.t0, 3, arch.MakeLeaf(arch.LastLevel, 0x4300_0000, handAttrs))
	if _, outcome := interpretChecked(t, &c, h.m, h.root, "leaf rewrite"); outcome != CachePartial {
		t.Fatalf("leaf rewrite: outcome %v, want partial", outcome)
	}
	after := c.Stats()
	if got := after.PagesWalked - before.PagesWalked; got != 1 {
		t.Errorf("leaf rewrite re-read %d table pages, want 1", got)
	}
	if after.FullWalks != before.FullWalks {
		t.Errorf("leaf rewrite took a full walk")
	}
	if _, outcome := c.Interpret(h.m, h.root); outcome != CacheHit || c.Stats().PagesWalked != after.PagesWalked {
		t.Errorf("interpretation after the rewrite: outcome %v, stats %+v; want a hit reading no page", outcome, c.Stats())
	}
}

// TestCacheRootWrite: writes to the root are descriptor diffs like any
// other: an annotation in a free slot, detaching the whole tree below
// root[0], and re-attaching it.
func TestCacheRootWrite(t *testing.T) {
	h := newHandTree()
	var c PgtableCache
	before := h.warm(t, &c)

	h.m.WritePTE(h.root, 5, arch.MakeAnnotation(3))
	if _, outcome := interpretChecked(t, &c, h.m, h.root, "root annotation"); outcome != CachePartial {
		t.Fatalf("root annotation: outcome %v, want partial", outcome)
	}
	if got := c.Stats().PagesWalked - before.PagesWalked; got != 1 {
		t.Errorf("root annotation re-read %d table pages, want 1", got)
	}

	var invalid arch.PTE
	h.m.WritePTE(h.root, 0, invalid)
	abs, _ := interpretChecked(t, &c, h.m, h.root, "root detach")
	if abs.Footprint.Len() != 1 {
		t.Errorf("after detaching root[0], footprint %v, want the root alone", abs.Footprint)
	}

	h.m.WritePTE(h.root, 0, arch.MakeTable(h.l1))
	abs, _ = interpretChecked(t, &c, h.m, h.root, "root re-attach")
	if abs.Footprint.Len() != 5 {
		t.Errorf("after re-attaching root[0], footprint %v, want 5 table pages", abs.Footprint)
	}
	if st := c.Stats(); st.FullWalks != before.FullWalks {
		t.Errorf("root writes took %d full walks", st.FullWalks-before.FullWalks)
	}
}

// TestCacheBlockSplitCollapse: a 2MB block replaced by a table of
// pages (one of them changed), then collapsed back into the block.
func TestCacheBlockSplitCollapse(t *testing.T) {
	h := newHandTree()
	var c PgtableCache
	h.warm(t, &c)

	const blockPA = 0x4400_0000
	block := arch.MakeLeaf(2, blockPA, handAttrs)
	h.m.WritePTE(h.l2, 2, block)
	interpretChecked(t, &c, h.m, h.root, "block map")

	for i := 0; i < arch.PTEsPerTable; i++ {
		h.m.WritePTE(h.spare, i, arch.MakeLeaf(arch.LastLevel, arch.PhysAddr(blockPA+i*arch.PageSize), handAttrs))
	}
	h.m.WritePTE(h.spare, 7, arch.MakeAnnotation(2))
	h.m.WritePTE(h.l2, 2, arch.MakeTable(h.spare))
	abs, _ := interpretChecked(t, &c, h.m, h.root, "split")
	if !abs.Footprint.Contains(arch.PhysToPFN(h.spare)) {
		t.Errorf("split: footprint %v misses the new table", abs.Footprint)
	}

	h.m.WritePTE(h.l2, 2, block)
	abs, _ = interpretChecked(t, &c, h.m, h.root, "collapse")
	if abs.Footprint.Contains(arch.PhysToPFN(h.spare)) {
		t.Errorf("collapse: footprint %v keeps the freed table", abs.Footprint)
	}
}

// TestCacheFrameReuse: table frames freed and reused elsewhere before
// the next Interpret — t0 at another level-2 slot with new contents,
// t1 one level up as a level-2 table of blocks.
func TestCacheFrameReuse(t *testing.T) {
	h := newHandTree()
	var c PgtableCache
	h.warm(t, &c)

	var invalid arch.PTE
	h.m.WritePTE(h.l2, 0, invalid)
	h.m.ZeroPage(h.t0)
	h.m.WritePTE(h.t0, 9, arch.MakeLeaf(arch.LastLevel, 0x4500_0000, handAttrs))
	h.m.WritePTE(h.l2, 5, arch.MakeTable(h.t0))
	interpretChecked(t, &c, h.m, h.root, "reuse at level 3")

	h.m.WritePTE(h.l2, 1, invalid)
	h.m.ZeroPage(h.t1)
	h.m.WritePTE(h.t1, 4, arch.MakeLeaf(2, 0x4600_0000, handAttrs))
	h.m.WritePTE(h.l1, 2, arch.MakeTable(h.t1))
	abs, _ := interpretChecked(t, &c, h.m, h.root, "reuse at level 2")
	if abs.Footprint.Len() != 5 {
		t.Errorf("footprint %v, want 5 table pages", abs.Footprint)
	}
}

// TestCacheDetachRewritten: a level-2 table detached from the tree
// whose own table descriptor was rewritten too before the next
// Interpret. Only a top-down diff drops its subtree through the
// descriptors the cache had interpreted; the new child must not be
// cached.
func TestCacheDetachRewritten(t *testing.T) {
	h := newHandTree()
	var c PgtableCache
	h.warm(t, &c)

	h.m.WritePTE(h.spare, 0, arch.MakeLeaf(arch.LastLevel, 0x4700_0000, handAttrs))
	h.m.WritePTE(h.l2, 0, arch.MakeTable(h.spare))
	var invalid arch.PTE
	h.m.WritePTE(h.l1, 1, invalid)
	abs, _ := interpretChecked(t, &c, h.m, h.root, "detach rewritten table")
	if abs.Footprint.Len() != 2 {
		t.Errorf("footprint %v, want root and l1 only", abs.Footprint)
	}
}

// TestCacheIdenticalRewrite: a generation bump that leaves every
// descriptor as it was (a restore writing a frame's old contents back)
// re-reads the page and returns the stored mapping untouched.
func TestCacheIdenticalRewrite(t *testing.T) {
	h := newHandTree()
	var c PgtableCache
	h.warm(t, &c)
	prev, _ := c.Interpret(h.m, h.root)
	before := c.Stats()

	h.m.WritePTE(h.t1, 2, h.m.ReadPTE(h.t1, 2))
	got, outcome := interpretChecked(t, &c, h.m, h.root, "identical rewrite")
	if outcome != CacheHit {
		t.Errorf("identical rewrite: outcome %v, want hit", outcome)
	}
	after := c.Stats()
	if after.PagesWalked-before.PagesWalked != 1 || after.PartialWalks != before.PartialWalks {
		t.Errorf("identical rewrite: stats %+v -> %+v, want one page re-read and no partial walk", before, after)
	}
	if &got.Mapping.Maplets()[0] != &prev.Mapping.Maplets()[0] {
		t.Error("identical rewrite rebuilt the cached mapping")
	}
}

// TestCacheOutcomes: a cold cache walks fully, an unchanged table
// hits, a leaf-level write re-walks partially — and each outcome's
// abstraction matches the full recompute.
func TestCacheOutcomes(t *testing.T) {
	tbl := buildRandomTable(t, 7)
	var c PgtableCache

	if _, outcome := c.Interpret(tbl.Mem, tbl.Root()); outcome != CacheFull {
		t.Fatalf("cold interpret: outcome %v, want full", outcome)
	}
	mustMatchFull(t, &c, tbl, "after cold walk")

	if _, outcome := c.Interpret(tbl.Mem, tbl.Root()); outcome != CacheHit {
		t.Fatalf("unchanged interpret: outcome %v, want hit", outcome)
	}

	// Rewrite one existing leaf in place: only its level-3 table page
	// changes, so the re-walk must be partial.
	var leafIA uint64
	found := false
	_ = tbl.Walk(0, 1<<arch.IABits, &pgtable.Visitor{
		Flags: pgtable.VisitLeaf,
		Fn: func(ctx *pgtable.VisitCtx) error {
			if !found && ctx.Level == arch.LastLevel && ctx.PTE.Valid() {
				leafIA, found = ctx.IA, true
			}
			return nil
		},
	})
	if !found {
		t.Fatal("random table has no level-3 leaf")
	}
	attrs := arch.Attrs{Perms: arch.PermR, Mem: arch.MemNormal, State: arch.StateSharedOwned}
	if err := tbl.Map(leafIA, arch.PageSize, arch.PhysAddr(0x7770000), attrs, true); err != nil {
		t.Fatal(err)
	}
	if _, outcome := c.Interpret(tbl.Mem, tbl.Root()); outcome != CachePartial {
		t.Fatalf("after leaf rewrite: outcome %v, want partial", outcome)
	}
	mustMatchFull(t, &c, tbl, "after leaf rewrite")

	// mustMatchFull's own Interpret calls land as extra hits.
	st := c.Stats()
	if st.Hits < 2 || st.FullWalks != 1 || st.PartialWalks != 1 {
		t.Errorf("stats %+v: want >=2 hits, 1 full walk, 1 partial", st)
	}
}

// TestCacheRandomChurn: random map/unmap/annotate traffic, with the
// cached and full interpretations compared after every mutation. This
// exercises subtree growth, block splitting, table freeing, and frame
// reuse — all the structural changes the dirty-subtree logic must
// survive.
func TestCacheRandomChurn(t *testing.T) {
	m := arch.NewMemory(arch.DefaultLayout())
	pool := mem.NewPool("tables", arch.PFN(0x90000), 192)
	tbl, err := pgtable.New("churn", m, arch.Stage2, pgtable.PoolAllocator{Pool: pool}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	attrs := arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateOwned}

	var c PgtableCache
	for step := 0; step < 300; step++ {
		ia := uint64(rng.Intn(1<<20)) << arch.PageShift
		pages := uint64(rng.Intn(8) + 1)
		switch rng.Intn(3) {
		case 0:
			pa := arch.PhysAddr(rng.Intn(1<<20)) << arch.PageShift
			_ = tbl.Map(ia, pages<<arch.PageShift, pa, attrs, true)
		case 1:
			_ = tbl.Unmap(ia, pages<<arch.PageShift)
		case 2:
			_ = tbl.Annotate(ia, pages<<arch.PageShift, uint8(rng.Intn(3)+1))
		}
		mustMatchFull(t, &c, tbl, fmt.Sprintf("step %d", step))
	}
	st := c.Stats()
	if st.PartialWalks == 0 {
		t.Error("300 mutations produced no partial walks")
	}
}

// TestCacheRootChange: pointing the cache at a different root is a
// full walk of the new tree.
func TestCacheRootChange(t *testing.T) {
	a := buildRandomTable(t, 1)
	var c PgtableCache
	c.Interpret(a.Mem, a.Root())

	pool := mem.NewPool("tables2", arch.PFN(0xa0000), 64)
	b, err := pgtable.New("other", a.Mem, arch.Stage2, pgtable.PoolAllocator{Pool: pool}, 2)
	if err != nil {
		t.Fatal(err)
	}
	attrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateOwned}
	if err := b.Map(4<<arch.PageShift, arch.PageSize, 0x5000, attrs, false); err != nil {
		t.Fatal(err)
	}
	got, outcome := c.Interpret(a.Mem, b.Root())
	if outcome != CacheFull {
		t.Fatalf("root change: outcome %v, want full", outcome)
	}
	ref := InterpretPgtable(a.Mem, b.Root())
	if !EqualMappings(got.Mapping, ref.Mapping) {
		t.Error("root change: abstraction of the new tree is wrong")
	}
}

// TestCacheSnapshotImmutable: an abstraction handed out by the cache
// must not change when the table mutates and the cache re-walks —
// recorded pre/post states would otherwise rewrite themselves.
func TestCacheSnapshotImmutable(t *testing.T) {
	tbl := buildRandomTable(t, 13)
	var c PgtableCache
	snap, _ := c.Interpret(tbl.Mem, tbl.Root())
	saved := append([]Maplet(nil), snap.Mapping.Maplets()...)

	attrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateOwned}
	for i := uint64(0); i < 32; i++ {
		_ = tbl.Map((0x300+i)<<arch.PageShift, arch.PageSize, arch.PhysAddr(0x8880000+i*arch.PageSize), attrs, true)
		c.Interpret(tbl.Mem, tbl.Root())
	}

	after := snap.Mapping.Maplets()
	if len(after) != len(saved) {
		t.Fatalf("snapshot maplet count changed: %d -> %d", len(saved), len(after))
	}
	for i := range saved {
		if after[i] != saved[i] {
			t.Fatalf("snapshot maplet %d changed: %v -> %v", i, saved[i], after[i])
		}
	}
}

// TestSeparationReportsAllViolations: with three footprints violating
// two constraints at once, the separation alarm names every violated
// pair, not just the last one scanned (which an earlier version
// silently kept).
func TestSeparationReportsAllViolations(t *testing.T) {
	r := &Recorder{shared: NewState()}
	g := hyp.Globals{NrCPUs: 1, CarveStart: 1 << 30, CarveSize: 16 << 20}
	r.shared.Globals = Globals{Present: true, Globals: g}

	carve := arch.PhysToPFN(g.CarveStart)
	outside := carve + arch.PFN(g.CarveSize>>arch.PageShift) + 10

	r.shared.Pkvm = Pkvm{Present: true,
		PGT: AbstractPgtable{Footprint: NewPageSet(carve+1, outside)}}
	r.shared.Host = Host{Present: true}
	r.hostFootprint = NewPageSet(carve + 1)

	r.checkSeparation(bootCPU)
	fs := r.Failures()
	if len(fs) != 1 {
		t.Fatalf("%d separation alarms, want 1 combined", len(fs))
	}
	d := fs[0].Detail
	if !strings.Contains(d, "footprints of pkvm and host overlap") {
		t.Errorf("overlap violation missing from detail:\n%s", d)
	}
	if !strings.Contains(d, "outside the carve-out") {
		t.Errorf("carve-out violation missing from detail:\n%s", d)
	}
}

// TestBootAlarmLabel: boot-time alarms render "boot", not a fabricated
// cpu0 exception.
func TestBootAlarmLabel(t *testing.T) {
	f := Failure{Kind: FailInitLayout, Call: CallData{Boot: true}, Detail: "layout wrong"}
	if got := f.String(); !strings.Contains(got, "boot") || strings.Contains(got, "cpu0") {
		t.Errorf("boot alarm renders %q", got)
	}
}

// TestVerifyCacheCleanScenario: the recorder's differential self-check
// stays silent across the full lifecycle scenario — the cached and
// reference abstraction paths agree at every hook.
func TestVerifyCacheCleanScenario(t *testing.T) {
	s := newSys(t)
	s.rec.VerifyCache = true
	fullScenario(t, s)
	s.mustClean(t)
	st := s.rec.Stats()
	if st.Cache.Hits == 0 || st.Cache.PartialWalks == 0 {
		t.Errorf("scenario exercised no cache hits/partial walks: %+v", st.Cache)
	}
}

// TestHostInvariantIncremental: an illegal plainly-owned host mapping
// planted between hypercalls is dropped from the host abstraction, so
// only the legality check can see it. The next host-lock hook's partial
// walk must find it, with the reference path's text, and every later
// host-lock hook must report it again, as the full recompute does.
func TestHostInvariantIncremental(t *testing.T) {
	s := newSys(t)
	s.rec.VerifyCache = true
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))
	s.mustClean(t)
	walks := s.rec.Stats().Cache.PartialWalks

	victim := s.hostPFN(60).Phys()
	hostForceMap(t, s.hv, uint64(victim), victim+arch.PageSize,
		arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateOwned})
	_, want := AbstractHost(s.hv)
	if want == nil {
		t.Fatal("planted mapping is legal")
	}
	count := func() int {
		n := 0
		for _, f := range s.rec.Failures() {
			switch f.Kind {
			case FailHostInvariant:
				if f.Detail != want.Error() {
					t.Errorf("invariant alarm %q, reference says %q", f.Detail, want)
				}
				n++
			case FailCacheDivergence:
				t.Errorf("cache diverged: %v", f)
			}
		}
		return n
	}
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(2)))
	first := count()
	if first == 0 {
		t.Fatal("illegal owned mapping raised no host-invariant alarm")
	}
	if s.rec.Stats().Cache.PartialWalks == walks {
		t.Error("the alarm did not come through a partial walk")
	}
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(3)))
	if count() <= first {
		t.Error("host-invariant alarm not repeated at the next host-lock hooks")
	}
}
