package pgtable

import (
	"errors"
	"math/rand"
	"testing"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/arch"
	"ghostspec/internal/mem"
)

const (
	tablePoolBase = arch.PFN(0x90000) // table pages at 0x9000_0000
	tablePoolNr   = 2048
)

func newTestTable(t *testing.T, maxBlockLevel int) (*Table, *mem.Pool) {
	t.Helper()
	m := arch.NewMemory(arch.DefaultLayout())
	pool := mem.NewPool("tables", tablePoolBase, tablePoolNr)
	tbl, err := New("test", m, arch.Stage2, PoolAllocator{pool}, maxBlockLevel)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tbl, pool
}

var normRWX = arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal}

func TestMapSinglePage(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	if err := tbl.Map(0x4000_0000, arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatalf("Map: %v", err)
	}
	res, f := arch.WalkRead(tbl.Mem, tbl.Root(), 0x4000_0123)
	if f != nil {
		t.Fatalf("hardware walk faulted: %v", f)
	}
	if res.OutputAddr != 0x4000_0123 || res.Level != 3 {
		t.Errorf("walk = %#x level %d", uint64(res.OutputAddr), res.Level)
	}
}

func TestMapUsesBlocks(t *testing.T) {
	tbl, pool := newTestTable(t, 2)
	before := pool.Allocated()
	// 4MB identity mapping, 2MB aligned: wants two level 2 blocks.
	if err := tbl.Map(0x4020_0000, 4<<20, 0x4020_0000, normRWX, false); err != nil {
		t.Fatalf("Map: %v", err)
	}
	pte, level := tbl.GetLeaf(0x4020_0000)
	if level != 2 || pte.Kind(level) != arch.EKBlock {
		t.Errorf("leaf at level %d kind %v, want level 2 block", level, pte.Kind(level))
	}
	// Only the two interior tables (l1, l2) should have been added.
	if got := pool.Allocated() - before; got != 2 {
		t.Errorf("allocated %d table pages, want 2", got)
	}
	// Every page of the 4MB range translates.
	for off := uint64(0); off < 4<<20; off += arch.PageSize {
		res, f := arch.WalkRead(tbl.Mem, tbl.Root(), 0x4020_0000+off)
		if f != nil || res.OutputAddr != arch.PhysAddr(0x4020_0000+off) {
			t.Fatalf("offset %#x: res %#x fault %v", off, uint64(res.OutputAddr), f)
		}
	}
}

func TestMapRespectsMaxBlockLevel(t *testing.T) {
	tbl, _ := newTestTable(t, 3) // pages only
	if err := tbl.Map(0x4020_0000, 2<<20, 0x4020_0000, normRWX, false); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if _, level := tbl.GetLeaf(0x4020_0000); level != 3 {
		t.Errorf("leaf level %d, want 3 with MaxBlockLevel=3", level)
	}
}

func TestMapMisalignedOutputAvoidsBlocks(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	// 2MB range, IA block-aligned but PA off by one page: must use pages.
	if err := tbl.Map(0x4020_0000, 2<<20, 0x4000_1000, normRWX, false); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if _, level := tbl.GetLeaf(0x4020_0000); level != 3 {
		t.Errorf("leaf level %d, want 3 for misaligned PA", level)
	}
	res, f := arch.WalkRead(tbl.Mem, tbl.Root(), 0x4020_0000+arch.PageSize)
	if f != nil || res.OutputAddr != 0x4000_2000 {
		t.Errorf("second page -> %#x, fault %v", uint64(res.OutputAddr), f)
	}
}

func TestMapConflict(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	if err := tbl.Map(0x4000_0000, arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	err := tbl.Map(0x4000_0000, arch.PageSize, 0x5000_0000, normRWX, false)
	if !errors.Is(err, ErrExists) {
		t.Errorf("remap err = %v, want ErrExists", err)
	}
	// Force succeeds and replaces.
	if err := tbl.Map(0x4000_0000, arch.PageSize, 0x5000_0000, normRWX, true); err != nil {
		t.Fatalf("force remap: %v", err)
	}
	res, _ := arch.WalkRead(tbl.Mem, tbl.Root(), 0x4000_0000)
	if res.OutputAddr != 0x5000_0000 {
		t.Errorf("after force remap -> %#x", uint64(res.OutputAddr))
	}
}

func TestUnmapSplitsBlock(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	if err := tbl.Map(0x4020_0000, 2<<20, 0x4020_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	// Unmap one page in the middle of the 2MB block.
	victim := uint64(0x4020_0000 + 17*arch.PageSize)
	if err := tbl.Unmap(victim, arch.PageSize); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if _, f := arch.WalkRead(tbl.Mem, tbl.Root(), victim); f == nil {
		t.Error("unmapped page still translates")
	}
	// Every other page of the block still translates to the right PA.
	for off := uint64(0); off < 2<<20; off += arch.PageSize {
		ia := 0x4020_0000 + off
		if ia == victim {
			continue
		}
		res, f := arch.WalkRead(tbl.Mem, tbl.Root(), ia)
		if f != nil || res.OutputAddr != arch.PhysAddr(ia) {
			t.Fatalf("ia %#x: res %#x fault %v", ia, uint64(res.OutputAddr), f)
		}
	}
	if _, level := tbl.GetLeaf(0x4020_0000); level != 3 {
		t.Errorf("block not split to pages: level %d", level)
	}
}

func TestUnmapInvalidIsNoop(t *testing.T) {
	tbl, pool := newTestTable(t, 2)
	before := pool.Allocated()
	if err := tbl.Unmap(0x4000_0000, 1<<20); err != nil {
		t.Fatalf("Unmap of nothing: %v", err)
	}
	if pool.Allocated() != before {
		t.Error("unmap of invalid range allocated table pages")
	}
}

func TestAnnotate(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	if err := tbl.Annotate(0x4000_0000, arch.PageSize, 2); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	pte, _ := tbl.GetLeaf(0x4000_0000)
	if pte.Kind(3) != arch.EKAnnotated || pte.OwnerID() != 2 {
		t.Errorf("leaf = %v owner %d", pte.Kind(3), pte.OwnerID())
	}
	// Hardware must fault on annotated entries.
	if _, f := arch.WalkRead(tbl.Mem, tbl.Root(), 0x4000_0000); f == nil {
		t.Error("annotated page translates")
	}
	// Clearing with owner 0 returns to plain invalid.
	if err := tbl.Annotate(0x4000_0000, arch.PageSize, 0); err != nil {
		t.Fatal(err)
	}
	pte, _ = tbl.GetLeaf(0x4000_0000)
	if pte.Kind(3) != arch.EKInvalid {
		t.Errorf("after clear: %v", pte.Kind(3))
	}
}

func TestAnnotateCoarse(t *testing.T) {
	tbl, pool := newTestTable(t, 2)
	before := pool.Allocated()
	// A whole 2MB entry gets a single coarse annotation.
	if err := tbl.Annotate(0x4020_0000, 2<<20, 3); err != nil {
		t.Fatal(err)
	}
	pte, level := tbl.GetLeaf(0x4020_0000)
	if level != 2 || pte.Kind(level) != arch.EKAnnotated {
		t.Errorf("coarse annotation: level %d kind %v", level, pte.Kind(level))
	}
	if got := pool.Allocated() - before; got != 2 {
		t.Errorf("coarse annotation used %d pages, want 2 (l1+l2)", got)
	}
}

func TestSplitAnnotationReplicates(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	if err := tbl.Annotate(0x4020_0000, 2<<20, 3); err != nil {
		t.Fatal(err)
	}
	// Force-map one page inside the annotated 2MB region.
	victim := uint64(0x4020_0000 + 100*arch.PageSize)
	if err := tbl.Map(victim, arch.PageSize, 0x5000_0000, normRWX, true); err != nil {
		t.Fatalf("force map into annotation: %v", err)
	}
	// The victim maps; its neighbours keep the annotation.
	res, f := arch.WalkRead(tbl.Mem, tbl.Root(), victim)
	if f != nil || res.OutputAddr != 0x5000_0000 {
		t.Errorf("victim -> %#x fault %v", uint64(res.OutputAddr), f)
	}
	pte, level := tbl.GetLeaf(victim + arch.PageSize)
	if level != 3 || pte.Kind(3) != arch.EKAnnotated || pte.OwnerID() != 3 {
		t.Errorf("neighbour = level %d %v owner %d, want replicated annotation",
			level, pte.Kind(level), pte.OwnerID())
	}
}

func TestMapOverAnnotationWithoutForce(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	if err := tbl.Annotate(0x4000_0000, arch.PageSize, 2); err != nil {
		t.Fatal(err)
	}
	err := tbl.Map(0x4000_0000, arch.PageSize, 0x4000_0000, normRWX, false)
	if !errors.Is(err, ErrExists) {
		t.Errorf("map over annotation = %v, want ErrExists", err)
	}
}

func TestOutOfMemory(t *testing.T) {
	m := arch.NewMemory(arch.DefaultLayout())
	pool := mem.NewPool("tiny", tablePoolBase, 2) // root + one level
	tbl, err := New("test", m, arch.Stage2, PoolAllocator{pool}, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = tbl.Map(0x4000_0000, arch.PageSize, 0x4000_0000, normRWX, false)
	if !errors.Is(err, ErrNoMem) {
		t.Errorf("map with starved allocator = %v, want ErrNoMem", err)
	}
}

func TestBadRanges(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	cases := []struct{ ia, size uint64 }{
		{0x1001, arch.PageSize},     // unaligned ia
		{0x1000, 12},                // unaligned size
		{0x1000, 0},                 // empty
		{1 << 48, arch.PageSize},    // non-canonical
		{^uint64(0) - 4095, 0x2000}, // wraps
	}
	for _, c := range cases {
		if err := tbl.Map(c.ia, c.size, 0, normRWX, false); !errors.Is(err, ErrRange) {
			t.Errorf("Map(%#x,%#x) = %v, want ErrRange", c.ia, c.size, err)
		}
	}
	if err := tbl.Map(0x1000, arch.PageSize, 0x123, normRWX, false); !errors.Is(err, ErrRange) {
		t.Error("unaligned PA accepted")
	}
}

func TestWalkVisitorLeafOrder(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	if err := tbl.Map(0x4000_0000, 3*arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	var visited []uint64
	err := tbl.Walk(0x4000_0000, 5*arch.PageSize, &Visitor{
		Flags: VisitLeaf,
		Fn: func(ctx *VisitCtx) error {
			visited = append(visited, ctx.IA)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 mapped pages + 2 invalid leaves, in ascending order.
	if len(visited) != 5 {
		t.Fatalf("visited %d entries: %#x", len(visited), visited)
	}
	for i := 1; i < len(visited); i++ {
		if visited[i] <= visited[i-1] {
			t.Errorf("visit order not ascending: %#x", visited)
		}
	}
}

func TestWalkVisitorTablePrePost(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	if err := tbl.Map(0x4000_0000, arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	var pre, post int
	err := tbl.Walk(0x4000_0000, arch.PageSize, &Visitor{
		Flags: VisitTablePre | VisitTablePost,
		Fn: func(ctx *VisitCtx) error {
			if ctx.PTE.Kind(ctx.Level) != arch.EKTable {
				t.Errorf("table visitor saw %v", ctx.PTE.Kind(ctx.Level))
			}
			if pre > post {
				post++
			} else {
				pre++
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three interior levels (0,1,2), each visited pre and post.
	if pre+post != 6 {
		t.Errorf("table visits = %d, want 6", pre+post)
	}
}

func TestWalkVisitorAbort(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	if err := tbl.Map(0x4000_0000, 4*arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	count := 0
	err := tbl.Walk(0x4000_0000, 4*arch.PageSize, &Visitor{
		Flags: VisitLeaf,
		Fn: func(ctx *VisitCtx) error {
			count++
			if count == 2 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) || count != 2 {
		t.Errorf("err = %v after %d visits", err, count)
	}
}

func TestWalkVisitorReplace(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	if err := tbl.Map(0x4000_0000, arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	// A LEAF visitor that flips the page to an annotation, the way
	// stage2_map_walker-style callbacks mutate in place.
	err := tbl.Walk(0x4000_0000, arch.PageSize, &Visitor{
		Flags: VisitLeaf,
		Fn: func(ctx *VisitCtx) error {
			ctx.Replace(arch.MakeAnnotation(2))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pte, _ := tbl.GetLeaf(0x4000_0000)
	if pte.Kind(3) != arch.EKAnnotated {
		t.Errorf("replace did not stick: %v", pte.Kind(3))
	}
}

func TestDestroyReturnsAllPages(t *testing.T) {
	tbl, pool := newTestTable(t, 2)
	if err := tbl.Map(0x4000_0000, 8*arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x7000_0000, 2<<20, 0x4020_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	tbl.Destroy()
	if pool.Allocated() != 0 {
		t.Errorf("%d table pages leaked after Destroy", pool.Allocated())
	}
}

func TestTablePagesFootprint(t *testing.T) {
	tbl, pool := newTestTable(t, 2)
	if err := tbl.Map(0x4000_0000, arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	pages := tbl.TablePages()
	// Root + 3 interior levels.
	if len(pages) != 4 {
		t.Errorf("footprint = %d pages, want 4", len(pages))
	}
	if len(pages) != pool.Allocated() {
		t.Errorf("footprint %d != allocated %d", len(pages), pool.Allocated())
	}
}

func TestUnmapReclaimsEmptyTables(t *testing.T) {
	tbl, pool := newTestTable(t, 2)
	baseline := pool.Allocated() // just the root

	// Map 512 pages across one level-3 table plus parts of others.
	if err := tbl.Map(0x4000_0000, 512*arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	grown := pool.Allocated()
	if grown <= baseline {
		t.Fatal("mapping did not allocate tables")
	}
	// Unmapping everything returns the whole tree (except the root).
	if err := tbl.Unmap(0x4000_0000, 512*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := pool.Allocated(); got != baseline {
		t.Errorf("after full unmap: %d table pages allocated, want %d (reclaim leaked)", got, baseline)
	}
	// Partial unmap keeps the shared interior tables.
	if err := tbl.Map(0x4000_0000, 4*arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(0x4000_0000, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	res, f := arch.WalkRead(tbl.Mem, tbl.Root(), 0x4000_1000)
	if f != nil || res.OutputAddr != 0x4000_1000 {
		t.Error("partial unmap destroyed live mappings")
	}
}

func TestAnnotateClearReclaims(t *testing.T) {
	tbl, pool := newTestTable(t, 2)
	baseline := pool.Allocated()
	if err := tbl.Annotate(0x4000_0000, 8*arch.PageSize, 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Annotate(0x4000_0000, 8*arch.PageSize, 0); err != nil {
		t.Fatal(err)
	}
	if got := pool.Allocated(); got != baseline {
		t.Errorf("annotation clear leaked %d table pages", got-baseline)
	}
}

func TestMapUnmapChurnIsBalanced(t *testing.T) {
	// Long map/unmap churn must not grow the allocator footprint:
	// the leak the reclaim exists to prevent.
	tbl, pool := newTestTable(t, 2)
	baseline := pool.Allocated()
	for i := 0; i < 200; i++ {
		va := 0x4000_0000 + uint64(i%7)*(1<<30) // spread across level-1 entries
		if err := tbl.Map(va, 2*arch.PageSize, 0x4000_0000, normRWX, true); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Unmap(va, 2*arch.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := pool.Allocated(); got != baseline {
		t.Errorf("churn grew the table footprint from %d to %d pages", baseline, got)
	}
}

// Property: an arbitrary interleaving of page-granular map and unmap
// operations leaves the table extensionally equal to a reference
// finite map, as observed through the architecture's walk.
func TestMapUnmapAgainstReferenceModel(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	rng := rand.New(rand.NewSource(42))
	ref := map[uint64]arch.PhysAddr{} // ia -> pa

	const base = uint64(0x4000_0000)
	const span = 512 // pages
	for step := 0; step < 3000; step++ {
		page := base + uint64(rng.Intn(span))*arch.PageSize
		if rng.Intn(2) == 0 {
			pa := arch.PhysAddr(base + uint64(rng.Intn(span))*arch.PageSize)
			if err := tbl.Map(page, arch.PageSize, pa, normRWX, true); err != nil {
				t.Fatalf("step %d map: %v", step, err)
			}
			ref[page] = pa
		} else {
			if err := tbl.Unmap(page, arch.PageSize); err != nil {
				t.Fatalf("step %d unmap: %v", step, err)
			}
			delete(ref, page)
		}
	}
	for i := 0; i < span; i++ {
		ia := base + uint64(i)*arch.PageSize
		res, f := arch.WalkRead(tbl.Mem, tbl.Root(), ia)
		pa, mapped := ref[ia]
		if mapped != (f == nil) {
			t.Fatalf("ia %#x: mapped=%v fault=%v", ia, mapped, f)
		}
		if mapped && res.OutputAddr != pa {
			t.Fatalf("ia %#x -> %#x, want %#x", ia, uint64(res.OutputAddr), uint64(pa))
		}
	}
}

// Property: block mappings and page mappings of the same range are
// extensionally identical under the hardware walk.
func TestBlockPageEquivalence(t *testing.T) {
	blockTbl, _ := newTestTable(t, 2)
	pageTbl, _ := newTestTable(t, 3)
	if err := blockTbl.Map(0x4020_0000, 2<<20, 0x4020_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	if err := pageTbl.Map(0x4020_0000, 2<<20, 0x4020_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 2<<20; off += arch.PageSize {
		a, fa := arch.WalkRead(blockTbl.Mem, blockTbl.Root(), 0x4020_0000+off)
		b, fb := arch.WalkRead(pageTbl.Mem, pageTbl.Root(), 0x4020_0000+off)
		if (fa == nil) != (fb == nil) || a.OutputAddr != b.OutputAddr || a.Attrs != b.Attrs {
			t.Fatalf("divergence at offset %#x", off)
		}
	}
}

// tlbiRecorder captures break-before-make notifications and asserts
// the ordering contract at callback time: the broken entry must
// already be invalid (a hardware walk faults) when the TLBI fires, or
// break-before-make is violated.
type tlbiRecorder struct {
	t   *testing.T
	tbl *Table
	got []tlbiEvent
}

type tlbiEvent struct{ ia, size uint64 }

func recordTLBI(t *testing.T, tbl *Table) *tlbiRecorder {
	r := &tlbiRecorder{t: t, tbl: tbl}
	tbl.SetTLBI(func(_ *preempt.Point, ia, size uint64) {
		if _, f := arch.WalkRead(tbl.Mem, tbl.Root(), ia); f == nil {
			t.Errorf("TLBI for ia %#x fired while the entry still translates (make before break)", ia)
		}
		r.got = append(r.got, tlbiEvent{ia, size})
	})
	return r
}

func (r *tlbiRecorder) take() []tlbiEvent {
	g := r.got
	r.got = nil
	return g
}

func TestTLBIOnlyForLiveEntries(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	rec := recordTLBI(t, tbl)

	// invalid -> valid (the demand-map path): nothing was cached, no TLBI.
	if err := tbl.Map(0x4000_0000, arch.PageSize, 0x4000_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	if g := rec.take(); len(g) != 0 {
		t.Errorf("demand map notified %v", g)
	}

	// valid -> valid replacement (force): one TLBI for the broken page.
	if err := tbl.Map(0x4000_0000, arch.PageSize, 0x4000_5000, normRWX, true); err != nil {
		t.Fatal(err)
	}
	if g := rec.take(); len(g) != 1 || g[0] != (tlbiEvent{0x4000_0000, arch.PageSize}) {
		t.Errorf("forced remap notified %v", g)
	}

	// valid -> invalid (unmap): one TLBI; unmapping nothing: none.
	if err := tbl.Unmap(0x4000_0000, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if g := rec.take(); len(g) != 1 || g[0] != (tlbiEvent{0x4000_0000, arch.PageSize}) {
		t.Errorf("unmap notified %v", g)
	}
	if err := tbl.Unmap(0x4000_0000, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if g := rec.take(); len(g) != 0 {
		t.Errorf("unmap of nothing notified %v", g)
	}

	// Annotations never enter the TLB: annotating invalid entries and
	// mapping over an annotation are both maintenance-free.
	if err := tbl.Annotate(0x4000_0000, arch.PageSize, 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x4000_0000, arch.PageSize, 0x4000_0000, normRWX, true); err != nil {
		t.Fatal(err)
	}
	if g := rec.take(); len(g) != 0 {
		t.Errorf("annotation paths notified %v", g)
	}
	// But annotating over a live mapping breaks it: one TLBI.
	if err := tbl.Annotate(0x4000_0000, arch.PageSize, 3); err != nil {
		t.Fatal(err)
	}
	if g := rec.take(); len(g) != 1 {
		t.Errorf("annotate over mapping notified %v", g)
	}
}

func TestTLBICoversBrokenBlock(t *testing.T) {
	tbl, _ := newTestTable(t, 2)
	rec := recordTLBI(t, tbl)
	if err := tbl.Map(0x4020_0000, 2<<20, 0x4020_0000, normRWX, false); err != nil {
		t.Fatal(err)
	}
	if g := rec.take(); len(g) != 0 {
		t.Fatalf("block map notified %v", g)
	}

	// Unmapping one page splits the block: first a TLBI covering the
	// whole 2MB entry being broken (not just the page), then the
	// page-granule TLBI for the replicated page the unmap breaks.
	if err := tbl.Unmap(0x4020_3000, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	g := rec.take()
	want := []tlbiEvent{{0x4020_0000, arch.LevelSize(2)}, {0x4020_3000, arch.PageSize}}
	if len(g) != 2 || g[0] != want[0] || g[1] != want[1] {
		t.Errorf("block split notified %v, want %v", g, want)
	}

	// Whole-entry unmap of a region now holding a subtree: one TLBI
	// covering the subtree's range.
	if err := tbl.Unmap(0x4020_0000, 2<<20); err != nil {
		t.Fatal(err)
	}
	g = rec.take()
	if len(g) != 1 || g[0] != (tlbiEvent{0x4020_0000, arch.LevelSize(2)}) {
		t.Errorf("subtree unmap notified %v", g)
	}
}

// stepLog is a preempt.Scheduler that logs crossings without parking.
type stepLog struct{ seen []*preempt.Point }

func (l *stepLog) Crossing(p *preempt.Point) { l.seen = append(l.seen, p) }

// TestVisitorStepPoints checks the walker's static visitor-step
// points: they are exactly the registered visitor-step points,
// walkLevel's three dispatches in source order, and the pre, post and
// leaf walks each cross only their own point, once per callback.
func TestVisitorStepPoints(t *testing.T) {
	static := []*preempt.Point{stepPre, stepPost, stepLeaf}
	var pts []*preempt.Point
	for _, p := range preempt.Points() {
		if p.Kind == preempt.KindVisitorStep {
			pts = append(pts, p)
		}
	}
	if len(pts) != 3 {
		t.Fatalf("%d visitor-step points registered, want walkLevel's 3", len(pts))
	}
	for i, p := range pts {
		if p != static[i] || p.Pkg != "ghostspec/internal/pgtable" || p.Func != "walkLevel" || p.Ordinal != i {
			t.Errorf("registered point %v is not walkLevel's dispatch %d (%v)", p, i, static[i])
		}
	}

	tbl, _ := newTestTable(t, 3)
	for _, ia := range []uint64{0x4000_0000, 0x4000_5000, 0x8020_0000} {
		if err := tbl.Map(ia, arch.PageSize, arch.PhysAddr(ia), normRWX, false); err != nil {
			t.Fatal(err)
		}
	}
	var dom preempt.Domain
	var log stepLog
	tbl.SetDomain(&dom)
	dom.Bind(&log)
	defer dom.Bind(nil)
	for _, c := range []struct {
		name  string
		flags WalkFlags
		want  *preempt.Point
	}{
		{"VisitTablePre", VisitTablePre, stepPre},
		{"VisitTablePost", VisitTablePost, stepPost},
		{"VisitLeaf", VisitLeaf, stepLeaf},
	} {
		log.seen = log.seen[:0]
		calls := 0
		err := tbl.Walk(0x4000_0000, 1<<30+2<<20, &Visitor{Flags: c.flags, Fn: func(*VisitCtx) error {
			calls++
			return nil
		}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if calls == 0 || len(log.seen) != calls {
			t.Errorf("%s: %d callbacks, %d crossings", c.name, calls, len(log.seen))
		}
		for _, p := range log.seen {
			if p != c.want {
				t.Errorf("%s crossed %v, want %v", c.name, p, c.want)
				break
			}
		}
	}
}
