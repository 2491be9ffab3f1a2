package arch

import (
	"fmt"
	"math/rand/v2"
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
	// A store to a descriptor the walk read makes the software path
	// refuse the entry, TLBI or not: the hypervisor reads its tables
	// with ordinary loads and must never see a stale descriptor.
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
// refreshing entries whose walk changed but whose translation did not
// updates them in place.
func TestTLBRefreshDoesNotAllocate(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)
	for _, ia := range []uint64{0x0, 0x1000, 0x20_0000} {
		if _, f := tlbWalk(tlb, root, 1, ia); f != nil {
			t.Fatalf("walk %#x faulted: %v", ia, f)
		}
	}
	// Two identical last-level tables; each round moves the walks of
	// the two pages from one to the other.
	l2, l3 := PhysAddr(0x9000_2000), PhysAddr(0x9000_3000)
	tables := [2]PhysAddr{l3, 0x9000_4000}
	for i := 0; i < 2; i++ {
		m.WritePTE(tables[1], i, m.ReadPTE(l3, i))
	}
	round := 0
	allocs := testing.AllocsPerRun(100, func() {
		round++
		m.WritePTE(l2, 0, MakeTable(tables[round%2])) // same translations
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

	// Rewriting the same descriptor leaves the entry fresh; moving the
	// walk to a copy of its last-level table changes a descriptor it
	// read but not the translation, which refreshes the entry instead
	// of reporting it.
	l2, l3, l3copy := PhysAddr(0x9000_2000), PhysAddr(0x9000_3000), PhysAddr(0x9000_4000)
	m.WritePTE(l3, 0, MakeLeaf(3, 0x4000_0000, Attrs{Perms: PermRWX, Mem: MemNormal}))
	m.WritePTE(l3copy, 0, m.ReadPTE(l3, 0))
	m.WritePTE(l2, 0, MakeTable(l3copy))
	if stale := tlb.CheckCoherence(1); len(stale) != 0 {
		t.Fatalf("equal re-walk reported stale: %v", stale)
	}
	m.WritePTE(l2, 0, MakeTable(l3))
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

// TestTLBFreshDepsRewalkSame is the differential test of the
// descriptor dependencies. Over random descriptor stores into a shared
// 4-level table, fills, TLBIs and snapshot restores, it holds two
// things after every step:
//   - every entry whose recorded descriptors still hold their values
//     re-walks to the same descriptor at the same level;
//   - CheckCoherence reports exactly the entries a full re-walk of
//     every entry finds translating differently: the stores made
//     without their TLBI, the unshare-skip-tlbi shape.
func TestTLBFreshDepsRewalkSame(t *testing.T) {
	m := NewMemory(testLayout())
	page := func(i int) PhysAddr { return m.RAMStart() + PhysAddr(i)*PageSize }
	// The root and two table pages at each level below it; every walk
	// goes through slots 0 and 1 of each table it reaches.
	tables := [][]PhysAddr{{page(0)}, {page(1), page(2)}, {page(3), page(4)}, {page(5), page(6)}}
	root := tables[0][0]
	rng := rand.New(rand.NewPCG(3, 4))
	desc := func(level int) PTE {
		switch k := rng.IntN(6); {
		case k == 0:
			return 0
		case k == 1:
			return MakeAnnotation(uint8(1 + rng.IntN(3)))
		case level == 0 || k < 4 && level < LastLevel:
			return MakeTable(tables[level+1][rng.IntN(2)])
		default:
			attrs := Attrs{Perms: Perms(1 + rng.IntN(7)), Mem: MemNormal}
			return MakeLeaf(level, PhysAddr(uint64(1+rng.IntN(2))*LevelSize(level)), attrs)
		}
	}
	store := func() {
		level := rng.IntN(LastLevel + 1)
		m.WritePTE(tables[level][rng.IntN(len(tables[level]))], rng.IntN(2), desc(level))
	}
	ia := func() uint64 {
		var ia uint64
		for level := StartLevel; level <= LastLevel; level++ {
			ia |= uint64(rng.IntN(2)) << LevelShift(level)
		}
		return ia
	}
	for level, ts := range tables {
		for _, tb := range ts {
			for i := 0; i < 2; i++ {
				m.WritePTE(tb, i, desc(level))
			}
		}
	}
	img := m.CaptureImage()
	bl, ok := img.NewBaseline(m)
	if !ok {
		t.Fatal("baseline over the captured memory must verify")
	}
	var delta *MemDelta

	tlb := NewTLB(m)
	// incoherent lists, in fill order, the pages of vmid's entries
	// that a full re-walk translates differently.
	incoherent := func(vmid VMID) []uint64 {
		s := tlb.find(vmid)
		if s == nil {
			return nil
		}
		var out []uint64
		for _, e := range s.entries {
			fresh := tlbEntry{key: e.key}
			tlb.walk(&fresh)
			if k := fresh.pte.Kind(fresh.level); k != EKBlock && k != EKPage ||
				fresh.oa() != e.oa() || fresh.pte.Attrs() != e.pte.Attrs() {
				out = append(out, e.key.page)
			}
		}
		return out
	}
	checked, rewalked := 0, 0
	for step := 0; step < 10000; step++ {
		vmid := VMID(1 + rng.IntN(2))
		switch op := rng.IntN(20); {
		case op < 8:
			tlbWalk(tlb, root, vmid, ia())
		case op < 12:
			store() // no TLBI
		case op < 14:
			store()
			tlb.InvalidateVMID(nil, vmid)
		case op < 15:
			tlb.InvalidateIPA(nil, vmid, ia())
		case op < 16:
			if rng.IntN(2) == 0 {
				bl.Restore()
			} else {
				bl.RestoreWith(delta)
			}
			tlb.InvalidateStale(nil)
		case op < 17:
			delta = bl.CaptureDelta()
		case op < 18:
			x := ia()
			if pte, level, ok := tlb.LookupLeaf(root, Stage2, vmid, x); ok {
				if wp, wl := WalkLeaf(m, root, x); wp != pte || wl != level {
					t.Fatalf("step %d: LookupLeaf(%#x) = %#x level %d, tables give %#x level %d",
						step, x, uint64(pte), level, uint64(wp), wl)
				}
			}
		default:
			want := incoherent(vmid)
			got := tlb.CheckCoherence(vmid)
			if len(got) != len(want) {
				t.Fatalf("step %d: CheckCoherence reported %d entries %v, a full re-walk finds %d (pages %#x)",
					step, len(got), got, len(want), want)
			}
			for i, p := range want {
				if !strings.Contains(got[i], fmt.Sprintf("ia %#x:", p<<PageShift)) {
					t.Fatalf("step %d: report %d is %q, want page %#x", step, i, got[i], p)
				}
			}
			rewalked += len(want)
		}
		for _, s := range tlb.sets {
			for _, e := range s.entries {
				if !e.depsFresh() {
					continue
				}
				checked++
				fresh := tlbEntry{key: e.key}
				tlb.walk(&fresh)
				if fresh.pte != e.pte || fresh.level != e.level {
					t.Fatalf("step %d: fresh entry for page %#x holds %#x level %d, a re-walk gives %#x level %d",
						step, e.key.page, uint64(e.pte), e.level, uint64(fresh.pte), fresh.level)
				}
			}
		}
	}
	if checked == 0 || rewalked == 0 {
		t.Fatalf("vacuous run: %d fresh entries checked, %d stale entries reported", checked, rewalked)
	}
}
