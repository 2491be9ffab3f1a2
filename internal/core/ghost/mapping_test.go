package ghost

import (
	"math/rand"
	"testing"
	"unsafe"

	"ghostspec/internal/arch"
)

var (
	rwxN = arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal}
	rwN  = arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal}
)

func page(n uint64) uint64 { return n << arch.PageShift }

// TestMapletSize pins the packed layout: copy-on-write maplet copies
// are most of the oracle's allocated bytes, and a field order that
// pads Target back to 24 bytes makes every one of them 25% larger.
func TestMapletSize(t *testing.T) {
	if n := unsafe.Sizeof(Target{}); n != 16 {
		t.Errorf("Target is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(Maplet{}); n != 32 {
		t.Errorf("Maplet is %d bytes, want 32", n)
	}
}

func TestExtendCoalesces(t *testing.T) {
	var m Mapping
	// Three contiguous pages with contiguous targets: one maplet.
	m.Extend(page(10), 1, Mapped(arch.PhysAddr(page(100)), rwxN))
	m.Extend(page(11), 1, Mapped(arch.PhysAddr(page(101)), rwxN))
	m.Extend(page(12), 1, Mapped(arch.PhysAddr(page(102)), rwxN))
	if m.NrMaplets() != 1 || m.NrPages() != 3 {
		t.Fatalf("maplets=%d pages=%d, want 1/3", m.NrMaplets(), m.NrPages())
	}
	// Non-contiguous target breaks the run.
	m.Extend(page(13), 1, Mapped(arch.PhysAddr(page(200)), rwxN))
	if m.NrMaplets() != 2 {
		t.Errorf("maplets=%d after target jump, want 2", m.NrMaplets())
	}
	// Attribute change breaks the run.
	m.Extend(page(14), 1, Mapped(arch.PhysAddr(page(201)), rwN))
	if m.NrMaplets() != 3 {
		t.Errorf("maplets=%d after attr change, want 3", m.NrMaplets())
	}
	// VA gap breaks the run.
	m.Extend(page(20), 1, Mapped(arch.PhysAddr(page(202)), rwN))
	if m.NrMaplets() != 4 {
		t.Errorf("maplets=%d after VA gap, want 4", m.NrMaplets())
	}
}

func TestExtendAnnotationsCoalesce(t *testing.T) {
	var m Mapping
	m.Extend(page(0), 2, Annotated(1))
	m.Extend(page(2), 3, Annotated(1))
	m.Extend(page(5), 1, Annotated(2))
	if m.NrMaplets() != 2 || m.NrPages() != 6 {
		t.Errorf("maplets=%d pages=%d, want 2/6", m.NrMaplets(), m.NrPages())
	}
}

func TestExtendOutOfOrderPanics(t *testing.T) {
	var m Mapping
	m.Extend(page(5), 1, Annotated(1))
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Extend did not panic")
		}
	}()
	m.Extend(page(4), 1, Annotated(1))
}

func TestLookupOffsets(t *testing.T) {
	var m Mapping
	m.Extend(page(10), 4, Mapped(arch.PhysAddr(page(100)), rwxN))
	tgt, ok := m.Lookup(page(12) + 0x123)
	if !ok || tgt.Phys != arch.PhysAddr(page(102)) {
		t.Errorf("lookup mid-maplet: %+v ok=%v", tgt, ok)
	}
	if _, ok := m.Lookup(page(14)); ok {
		t.Error("lookup past end succeeded")
	}
	if _, ok := m.Lookup(page(9)); ok {
		t.Error("lookup before start succeeded")
	}
}

func TestSetSplitsAndReplaces(t *testing.T) {
	var m Mapping
	m.Extend(page(0), 8, Mapped(arch.PhysAddr(page(100)), rwxN))
	// Replace page 3 with an annotation.
	m.Set(page(3), 1, Annotated(2))
	if m.NrMaplets() != 3 || m.NrPages() != 8 {
		t.Fatalf("maplets=%d pages=%d, want 3/8", m.NrMaplets(), m.NrPages())
	}
	tgt, _ := m.Lookup(page(3))
	if tgt.Kind != TargetAnnotated || tgt.Owner != 2 {
		t.Errorf("page 3 = %+v", tgt)
	}
	// Right remainder keeps correct phys.
	tgt, _ = m.Lookup(page(4))
	if tgt.Phys != arch.PhysAddr(page(104)) {
		t.Errorf("page 4 phys = %#x, want %#x", uint64(tgt.Phys), page(104))
	}
	// Restoring the page re-coalesces to one maplet.
	m.Set(page(3), 1, Mapped(arch.PhysAddr(page(103)), rwxN))
	if m.NrMaplets() != 1 {
		t.Errorf("maplets=%d after restore, want 1", m.NrMaplets())
	}
}

func TestRemove(t *testing.T) {
	var m Mapping
	m.Extend(page(0), 4, Mapped(arch.PhysAddr(page(100)), rwxN))
	m.Remove(page(1), 2)
	if m.NrPages() != 2 || m.NrMaplets() != 2 {
		t.Fatalf("pages=%d maplets=%d after middle removal", m.NrPages(), m.NrMaplets())
	}
	if _, ok := m.Lookup(page(1)); ok {
		t.Error("removed page still present")
	}
	m.Remove(page(0), 4)
	if !m.IsEmpty() {
		t.Error("mapping not empty after full removal")
	}
	// Removing from empty is a no-op.
	m.Remove(page(0), 100)
}

func TestEqualAndClone(t *testing.T) {
	var a Mapping
	a.Extend(page(0), 2, Mapped(arch.PhysAddr(page(50)), rwxN))
	a.Extend(page(5), 1, Annotated(1))
	b := a.Clone()
	if !EqualMappings(a, b) {
		t.Fatal("clone not equal")
	}
	b.Set(page(5), 1, Annotated(2))
	if EqualMappings(a, b) {
		t.Error("mutated clone still equal")
	}
	if tgt, _ := a.Lookup(page(5)); tgt.Owner != 1 {
		t.Error("clone mutation leaked into original")
	}
}

func TestDiffMappings(t *testing.T) {
	var old, new Mapping
	old.Extend(page(0), 1, Mapped(arch.PhysAddr(page(100)), rwxN))
	old.Extend(page(1), 1, Mapped(arch.PhysAddr(page(101)), rwxN))
	new.Extend(page(1), 1, Mapped(arch.PhysAddr(page(101)), rwN)) // attrs changed
	new.Extend(page(2), 1, Annotated(3))                          // added

	diffs := DiffMappings(old, new)
	// page 0 removed, page 1 changed (- and +), page 2 added: 4 entries.
	if len(diffs) != 4 {
		t.Fatalf("diffs = %v", diffs)
	}
	if diffs[0].Added || diffs[0].VA != page(0) {
		t.Errorf("first diff = %+v, want -page0", diffs[0])
	}
	if !diffs[3].Added || diffs[3].VA != page(2) {
		t.Errorf("last diff = %+v, want +page2", diffs[3])
	}
	if len(DiffMappings(old, old)) != 0 {
		t.Error("self-diff not empty")
	}
}

// TestSpliceRangeAllocatesOnce: mapping_update cutting one maplet in
// three, on a mapping shared copy-on-write with its original, builds
// the result in a single allocation.
func TestSpliceRangeAllocatesOnce(t *testing.T) {
	var base Mapping
	base.Extend(page(0), 8, Mapped(arch.PhysAddr(page(100)), rwxN))
	base.Extend(page(20), 4, Annotated(1))
	allocs := testing.AllocsPerRun(100, func() {
		m := base.Clone()
		m.Set(page(3), 1, Annotated(2))
	})
	if allocs != 1 {
		t.Errorf("Set allocated %v times, want 1", allocs)
	}
}

// TestSpliceRangeOwnedInPlace: on a mapping that owns its array and
// has room, mapping_update cutting a maplet in three and coalescing it
// back splices in place, allocating nothing.
func TestSpliceRangeOwnedInPlace(t *testing.T) {
	var m Mapping
	m.Extend(page(0), 8, Mapped(arch.PhysAddr(page(100)), rwxN))
	m.Extend(page(20), 4, Annotated(1))
	want := append([]Maplet(nil), m.Maplets()...)
	m.Grow(2)
	allocs := testing.AllocsPerRun(100, func() {
		m.Set(page(3), 1, Annotated(2))
		m.Set(page(3), 1, Mapped(arch.PhysAddr(page(103)), rwxN))
	})
	if allocs != 0 {
		t.Errorf("Set on an owned mapping allocated %v times, want 0", allocs)
	}
	if got := m.Maplets(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("after the round trip: %v, want %v", m, Mapping{maplets: want})
	}
}

// Property: an arbitrary interleaving of Set/Remove/SpliceRange leaves
// the Mapping extensionally equal to a reference map, and always
// canonical (sorted, coalesced, non-overlapping).
func TestMappingAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m Mapping
	ref := map[uint64]Target{}
	const span = 64

	targets := []Target{
		Mapped(arch.PhysAddr(page(1000)), rwxN),
		Mapped(arch.PhysAddr(page(2000)), rwN),
		Annotated(1),
		Annotated(7),
	}
	for step := 0; step < 5000; step++ {
		va := page(uint64(rng.Intn(span)))
		nr := uint64(rng.Intn(4) + 1)
		switch rng.Intn(4) {
		case 0:
			m.Remove(va, nr)
			for i := uint64(0); i < nr; i++ {
				delete(ref, va+page(i))
			}
		case 1:
			// Splice a few ascending, possibly adjacent and mergeable
			// maplets over a wider range.
			nr += 4
			var repl []Maplet
			for p := uint64(0); p < nr; {
				n := uint64(rng.Intn(3) + 1)
				if p+n > nr {
					n = nr - p
				}
				if rng.Intn(3) > 0 {
					repl = append(repl, Maplet{VA: va + page(p), NrPages: n, Target: targets[rng.Intn(len(targets))]})
				}
				p += n
			}
			m.SpliceRange(va, nr, repl)
			for i := uint64(0); i < nr; i++ {
				delete(ref, va+page(i))
			}
			for _, ml := range repl {
				for i := uint64(0); i < ml.NrPages; i++ {
					ref[ml.VA+page(i)] = ml.Target.at(i)
				}
			}
		default:
			tgt := targets[rng.Intn(len(targets))]
			m.Set(va, nr, tgt)
			for i := uint64(0); i < nr; i++ {
				ref[va+page(i)] = tgt.at(i)
			}
		}
		checkCanonical(t, m)

		// appendRange reads a window back as the reference has it, and
		// rangeEqual accepts exactly that list.
		wva, wn := page(uint64(rng.Intn(span))), uint64(rng.Intn(8)+1)
		win := m.appendRange(nil, wva, wn)
		var w Mapping
		w.SpliceRange(wva, wn, win)
		for i := uint64(0); i < wn; i++ {
			got, ok := w.Lookup(wva + page(i))
			want, wantOK := ref[wva+page(i)]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: window page %#x: got %+v,%v want %+v,%v", step, wva+page(i), got, ok, want, wantOK)
			}
		}
		if !m.rangeEqual(wva, wn, win) || len(win) > 0 && m.rangeEqual(wva, wn, win[1:]) {
			t.Fatalf("step %d: rangeEqual disagrees with appendRange on %v", step, win)
		}
	}
	for p := uint64(0); p < span+8; p++ {
		got, ok := m.Lookup(page(p))
		want, wantOK := ref[page(p)]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("page %d: got %+v,%v want %+v,%v", p, got, ok, want, wantOK)
		}
	}
	if m.NrPages() != uint64(len(ref)) {
		t.Errorf("NrPages=%d, ref=%d", m.NrPages(), len(ref))
	}
}

func checkCanonical(t *testing.T, m Mapping) {
	t.Helper()
	mls := m.Maplets()
	for i := range mls {
		if mls[i].NrPages == 0 {
			t.Fatal("empty maplet")
		}
		if i > 0 {
			prev := mls[i-1]
			if prev.end() > mls[i].VA {
				t.Fatal("overlapping maplets")
			}
			if prev.end() == mls[i].VA && prev.Target.continues(prev.NrPages, mls[i].Target) {
				t.Fatal("uncoalesced adjacent maplets")
			}
		}
	}
}
