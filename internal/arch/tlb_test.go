package arch

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// tlbWalk is the test shorthand: a stage 2 hardware read walk for vmid
// through t over the table built by buildTestTable.
func tlbWalk(t *TLB, root PhysAddr, vmid VMID, ia uint64) (WalkResult, *Fault) {
	return t.Walk(0, root, Stage2, vmid, ia, Access{})
}

func TestTLBHitServesStaleTranslation(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	res, f := tlbWalk(tlb, root, 1, 0x0)
	if f != nil || res.OutputAddr != 0x4000_0000 {
		t.Fatalf("first walk: %#x, fault %v", uint64(res.OutputAddr), f)
	}
	if tlb.Len() != 1 {
		t.Fatalf("Len = %d after one fill", tlb.Len())
	}

	// Rewrite the leaf without a TLBI: the hardware path must keep
	// serving the cached (now stale) translation — that is the modelled
	// bug class, not a cache defect.
	l3 := PhysAddr(0x9000_3000)
	m.WritePTE(l3, 0, MakeLeaf(3, 0x4000_5000, Attrs{Perms: PermRWX, Mem: MemNormal}))
	res, f = tlbWalk(tlb, root, 1, 0x0)
	if f != nil || res.OutputAddr != 0x4000_0000 {
		t.Errorf("post-rewrite hit: %#x, fault %v, want stale 0x4000_0000", uint64(res.OutputAddr), f)
	}

	// After the TLBI the next walk misses and sees the new leaf.
	tlb.InvalidateIPA(nil, 1, 0x0)
	if tlb.Len() != 0 {
		t.Errorf("Len = %d after invalidate", tlb.Len())
	}
	res, f = tlbWalk(tlb, root, 1, 0x0)
	if f != nil || res.OutputAddr != 0x4000_5000 {
		t.Errorf("post-TLBI walk: %#x, fault %v", uint64(res.OutputAddr), f)
	}
}

func TestTLBLookupLeafRevalidates(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	if _, f := tlbWalk(tlb, root, 1, 0x1000); f != nil {
		t.Fatalf("walk faulted: %v", f)
	}
	if pte, level, ok := tlb.LookupLeaf(root, Stage2, 1, 0x1000); !ok || level != 3 || pte.OutputAddr(3) != 0x4000_1000 {
		t.Fatalf("fresh LookupLeaf = %#x level %d ok %v", uint64(pte.OutputAddr(3)), level, ok)
	}
	// Any store to a dependency page makes the software path refuse the
	// entry, TLBI or not: the hypervisor reads its tables with ordinary
	// loads and must never see a stale descriptor.
	l3 := PhysAddr(0x9000_3000)
	m.WritePTE(l3, 1, MakeLeaf(3, 0x4000_6000, Attrs{Perms: PermRW, Mem: MemNormal}))
	if _, _, ok := tlb.LookupLeaf(root, Stage2, 1, 0x1000); ok {
		t.Error("LookupLeaf served a stale entry after a table store")
	}
	// Misses (wrong vmid, uncached page) return false too.
	if _, _, ok := tlb.LookupLeaf(root, Stage2, 2, 0x1000); ok {
		t.Error("LookupLeaf hit across VMIDs")
	}
	if _, _, ok := tlb.LookupLeaf(root, Stage2, 1, 0x5000); ok {
		t.Error("LookupLeaf hit an uncached page")
	}
}

func TestTLBInvalidateRangeCoversBlocks(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	// Fill from the 2MB block via one page inside it.
	if _, f := tlbWalk(tlb, root, 1, 0x20_0000); f != nil {
		t.Fatalf("block walk faulted: %v", f)
	}
	// A page-granule TLBI for a *different* page the block covers must
	// still drop the entry: invalidation matches leaf coverage, not the
	// filling address.
	tlb.InvalidateIPA(nil, 1, 0x20_0000+17*PageSize)
	if tlb.Len() != 0 {
		t.Errorf("block entry survived a TLBI inside its range (Len %d)", tlb.Len())
	}

	// And one just outside the block leaves it alone.
	if _, f := tlbWalk(tlb, root, 1, 0x20_0000); f != nil {
		t.Fatalf("refill walk faulted: %v", f)
	}
	tlb.InvalidateIPA(nil, 1, 0x20_0000+LevelSize(2))
	if tlb.Len() != 1 {
		t.Errorf("TLBI outside the block dropped it (Len %d)", tlb.Len())
	}
}

func TestTLBInvalidateVMIDAndAll(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	for _, vmid := range []VMID{1, 2} {
		if _, f := tlbWalk(tlb, root, vmid, 0x0); f != nil {
			t.Fatalf("walk vmid %d faulted: %v", vmid, f)
		}
		if _, f := tlbWalk(tlb, root, vmid, 0x1000); f != nil {
			t.Fatalf("walk vmid %d faulted: %v", vmid, f)
		}
	}
	if tlb.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tlb.Len())
	}
	tlb.InvalidateVMID(nil, 1)
	if tlb.Len() != 2 {
		t.Errorf("Len = %d after InvalidateVMID(1), want 2", tlb.Len())
	}
	if _, _, ok := tlb.LookupLeaf(root, Stage2, 2, 0x0); !ok {
		t.Error("vmid 2 entry lost to vmid 1's TLBI")
	}
	tlb.InvalidateAll(nil)
	if tlb.Len() != 0 {
		t.Errorf("Len = %d after InvalidateAll", tlb.Len())
	}
}

func TestTLBPermissionFaultStillCaches(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	// Page 1 is RW-: an exec walk faults but the translation itself is
	// valid and cacheable; the permission check is per access.
	if _, f := tlb.Walk(0, root, Stage2, 1, 0x1000, Access{Exec: true}); f == nil || f.Kind != FaultPermission {
		t.Fatalf("exec fault = %+v", f)
	}
	if tlb.Len() != 1 {
		t.Fatalf("Len = %d, want the faulting walk cached", tlb.Len())
	}
	// The cached entry serves a read hit and still exec-faults.
	if res, f := tlbWalk(tlb, root, 1, 0x1000); f != nil || res.OutputAddr != 0x4000_1000 {
		t.Errorf("read after exec fault: %#x, fault %v", uint64(res.OutputAddr), f)
	}
	if _, f := tlb.Walk(0, root, Stage2, 1, 0x1000, Access{Exec: true}); f == nil || f.Kind != FaultPermission {
		t.Errorf("cached exec fault = %+v", f)
	}
	// Faulting (invalid) walks are not cached.
	tlb.InvalidateAll(nil)
	if _, f := tlbWalk(tlb, root, 1, 0x5000); f == nil {
		t.Fatal("translation fault expected")
	}
	if tlb.Len() != 0 {
		t.Errorf("Len = %d, invalid walk was cached", tlb.Len())
	}
}

// TestTLBConcurrentFillsVsTLBI races hardware-path fills and software
// lookups against a mutator doing break-before-make with its TLBIs. A
// fill walks under the TLB mutex, so it is ordered before a TLBI (and
// swept by it) or after it (and reads the new tables): with no TLBI
// missing, no coherence check may ever report a stale entry.
func TestTLBConcurrentFillsVsTLBI(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)
	l3 := PhysAddr(0x9000_3000)
	const pages = 8
	attrs := Attrs{Perms: PermRW, Mem: MemNormal}
	for i := 0; i < pages; i++ {
		m.WritePTE(l3, i, MakeLeaf(3, PhysAddr(0x4000_0000+i*PageSize), attrs))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for cpu := 0; cpu < 3; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				ia := uint64(i%pages) << PageShift
				tlb.Walk(cpu, root, Stage2, 1, ia, Access{})
				tlb.LookupLeaf(root, Stage2, 1, ia)
			}
		}(cpu)
	}
	for round := 0; round < 20000; round++ {
		i := round % pages
		m.WritePTE(l3, i, 0) // break
		if round%16 == 0 {
			tlb.InvalidateVMID(nil, 1)
		} else {
			tlb.InvalidateIPA(nil, 1, uint64(i)<<PageShift)
		}
		if stale := tlb.CheckCoherence(1); len(stale) != 0 {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("round %d, after the TLBI: %v", round, stale)
		}
		m.WritePTE(l3, i, MakeLeaf(3, PhysAddr(0x5000_0000+round*PageSize), attrs)) // make
		if stale := tlb.CheckCoherence(1); len(stale) != 0 {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("round %d, after the make: %v", round, stale)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestTLBRefreshDoesNotAllocate: a coherence check whose only work is
// refreshing moved-but-equal entries updates them in place.
func TestTLBRefreshDoesNotAllocate(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)
	for _, ia := range []uint64{0x0, 0x1000, 0x20_0000} {
		if _, f := tlbWalk(tlb, root, 1, ia); f != nil {
			t.Fatalf("walk %#x faulted: %v", ia, f)
		}
	}
	l3 := PhysAddr(0x9000_3000)
	leaf := m.ReadPTE(l3, 0)
	allocs := testing.AllocsPerRun(100, func() {
		m.WritePTE(l3, 0, leaf) // same descriptor, new generation
		if stale := tlb.CheckCoherence(1); len(stale) != 0 {
			t.Fatalf("refresh reported stale: %v", stale)
		}
	})
	if allocs != 0 {
		t.Errorf("refresh-only CheckCoherence allocates %.1f times per call", allocs)
	}
	if tlb.Len() != 3 {
		t.Errorf("Len = %d after refreshes, want 3", tlb.Len())
	}
}

// TestTLBOtherVMIDsUntouched: maintenance and coherence checks of one
// VMID leave every entry of the others exactly as it was, and stale
// entries are reported in fill order.
func TestTLBOtherVMIDsUntouched(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)
	for _, vmid := range []VMID{1, 2} {
		for _, ia := range []uint64{0x1000, 0x0, 0x20_0000} {
			if _, f := tlbWalk(tlb, root, vmid, ia); f != nil {
				t.Fatalf("walk vmid %d %#x faulted: %v", vmid, ia, f)
			}
		}
	}
	before := slices.Clone(tlb.find(2).entries)

	// Move both page translations without a TLBI, then refresh the
	// block's dependencies by rewriting its descriptor unchanged.
	l2, l3 := PhysAddr(0x9000_2000), PhysAddr(0x9000_3000)
	attrs := Attrs{Perms: PermRWX, Mem: MemNormal}
	m.WritePTE(l3, 0, MakeLeaf(3, 0x4000_8000, attrs))
	m.WritePTE(l3, 1, MakeLeaf(3, 0x4000_9000, attrs))
	m.WritePTE(l2, 1, m.ReadPTE(l2, 1))
	stale := tlb.CheckCoherence(1)
	if len(stale) != 2 || !strings.Contains(stale[0], "ia 0x1000:") || !strings.Contains(stale[1], "ia 0x0:") {
		t.Fatalf("stale reports = %q, want ia 0x1000 then ia 0x0 (fill order)", stale)
	}
	tlb.InvalidateRange(nil, 1, 0, 1<<30)
	if tlb.Len() != 3 {
		t.Fatalf("Len = %d, want vmid 2's 3 entries", tlb.Len())
	}
	if !slices.Equal(before, tlb.find(2).entries) {
		t.Error("vmid 1's check or TLBI changed vmid 2's entries")
	}
	if again := tlb.CheckCoherence(2); len(again) != 2 {
		t.Errorf("vmid 2 stale reports = %q, want its own 2", again)
	}
}

// TestTLBEvictsOldestQuarter: a fill into a full VMID set first
// evicts the oldest quarter of it.
func TestTLBEvictsOldestQuarter(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)
	for i := 0; i < tlbCapacity; i++ { // every page of the 2MB block
		if _, f := tlbWalk(tlb, root, 1, 0x20_0000+uint64(i)*PageSize); f != nil {
			t.Fatalf("walk faulted: %v", f)
		}
	}
	if _, f := tlbWalk(tlb, root, 1, 0x0); f != nil {
		t.Fatalf("walk faulted: %v", f)
	}
	if want := tlbCapacity - tlbCapacity/4 + 1; tlb.Len() != want {
		t.Fatalf("Len = %d, want %d", tlb.Len(), want)
	}
	for _, c := range []struct {
		ia   uint64
		want bool
	}{
		{0x20_0000, false},
		{0x20_0000 + (tlbCapacity/4-1)*PageSize, false},
		{0x20_0000 + tlbCapacity/4*PageSize, true},
		{0x0, true},
	} {
		if _, _, ok := tlb.LookupLeaf(root, Stage2, 1, c.ia); ok != c.want {
			t.Errorf("LookupLeaf(%#x) hit = %v, want %v", c.ia, ok, c.want)
		}
	}
}

func TestTLBCheckCoherence(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	if _, f := tlbWalk(tlb, root, 1, 0x0); f != nil {
		t.Fatalf("walk faulted: %v", f)
	}
	// Fresh entry: coherent, nothing reported.
	if stale := tlb.CheckCoherence(1); len(stale) != 0 {
		t.Fatalf("fresh entry reported stale: %v", stale)
	}

	// A generation bump that does not change the translation (rewriting
	// the same descriptor) refreshes the entry instead of reporting it.
	l3 := PhysAddr(0x9000_3000)
	m.WritePTE(l3, 0, MakeLeaf(3, 0x4000_0000, Attrs{Perms: PermRWX, Mem: MemNormal}))
	if stale := tlb.CheckCoherence(1); len(stale) != 0 {
		t.Fatalf("equal re-walk reported stale: %v", stale)
	}
	if tlb.Len() != 1 {
		t.Fatalf("Len = %d after refresh", tlb.Len())
	}

	// Now genuinely change the translation without a TLBI.
	m.WritePTE(l3, 0, MakeLeaf(3, 0x4000_8000, Attrs{Perms: PermRWX, Mem: MemNormal}))
	stale := tlb.CheckCoherence(1)
	if len(stale) != 1 || !strings.Contains(stale[0], "TLBI was not issued") {
		t.Fatalf("stale report = %v", stale)
	}
	// Reported once, then dropped.
	if tlb.Len() != 0 {
		t.Errorf("Len = %d after stale report", tlb.Len())
	}
	if again := tlb.CheckCoherence(1); len(again) != 0 {
		t.Errorf("stale entry reported twice: %v", again)
	}

	// Unmapping underneath a cached entry is the other report shape.
	if _, f := tlbWalk(tlb, root, 1, 0x1000); f != nil {
		t.Fatalf("walk faulted: %v", f)
	}
	m.WritePTE(l3, 1, 0)
	stale = tlb.CheckCoherence(1)
	if len(stale) != 1 || !strings.Contains(stale[0], "fresh walk finds") {
		t.Errorf("unmapped-entry report = %v", stale)
	}

	// Other VMIDs' entries are out of scope for the check.
	if _, f := tlbWalk(tlb, root, 2, 0x0); f != nil {
		t.Fatalf("walk faulted: %v", f)
	}
	m.WritePTE(l3, 0, MakeLeaf(3, 0x4000_9000, Attrs{Perms: PermRWX, Mem: MemNormal}))
	if stale := tlb.CheckCoherence(1); len(stale) != 0 {
		t.Errorf("vmid 1 check reported vmid 2's entry: %v", stale)
	}
}

func TestTLBNilIsDisabled(t *testing.T) {
	var tlb *TLB
	if _, _, ok := tlb.LookupLeaf(0x9000_0000, Stage2, 1, 0x0); ok {
		t.Error("nil TLB reported a hit")
	}
	tlb.InvalidateIPA(nil, 1, 0x0)
	tlb.InvalidateRange(nil, 1, 0x0, PageSize)
	tlb.InvalidateVMID(nil, 1)
	tlb.InvalidateAll(nil)
	if tlb.Len() != 0 {
		t.Error("nil TLB has entries")
	}
	if stale := tlb.CheckCoherence(1); stale != nil {
		t.Errorf("nil TLB reported stale entries: %v", stale)
	}
}

// TestTLBOneEntryPerPage: a VMID's set holds one entry per page, so a
// fill of the same page under another root replaces the old entry.
func TestTLBOneEntryPerPage(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	other := PhysAddr(0x9100_0000)
	m.WritePTE(other, 0, MakeTable(0x9000_1000)) // shares root's lower levels
	tlb := NewTLB(m)
	for _, r := range []PhysAddr{root, other} {
		if _, f := tlbWalk(tlb, r, 1, 0x0); f != nil {
			t.Fatalf("walk from %#x faulted: %v", uint64(r), f)
		}
	}
	if tlb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tlb.Len())
	}
	if _, _, ok := tlb.LookupLeaf(root, Stage2, 1, 0x0); ok {
		t.Error("the replaced root's entry still hits")
	}
	if _, _, ok := tlb.LookupLeaf(other, Stage2, 1, 0x0); !ok {
		t.Error("the replacing root's entry misses")
	}
}
