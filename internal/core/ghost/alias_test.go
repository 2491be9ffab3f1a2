package ghost

import (
	"fmt"
	"slices"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
)

// heldValues keeps values the ghost machinery handed out, each with a
// deep copy taken at hand-out. Caches splice the mappings they own in
// place, so a hand-out that shares an owned array instead of a flagged
// clone would show here as a held value changing under its holder.
type heldValues struct {
	maps []heldMapping
	sets []heldSet
}

type heldMapping struct {
	what string
	m    Mapping
	want []Maplet
}

type heldSet struct {
	what string
	s    PageSet
	want []pfnRun
}

func (h *heldValues) mapping(what string, m Mapping) {
	h.maps = append(h.maps, heldMapping{what: what, m: m, want: slices.Clone(m.maplets)})
}

func (h *heldValues) pageSet(what string, s PageSet) {
	h.sets = append(h.sets, heldSet{what: what, s: s, want: slices.Clone(s.runs)})
}

func (h *heldValues) pgtable(what string, a AbstractPgtable) {
	h.mapping(what+" mapping", a.Mapping)
	h.pageSet(what+" footprint", a.Footprint)
}

func (h *heldValues) state(what string, s *State) {
	h.pgtable(what+" pkvm", s.Pkvm.PGT)
	h.mapping(what+" host annot", s.Host.Annot)
	h.mapping(what+" host shared", s.Host.Shared)
	h.pageSet(what+" reclaim", s.VMs.Reclaim)
	for hd, g := range s.Guests {
		h.pgtable(fmt.Sprintf("%s guest %v", what, hd), g.PGT)
	}
}

// check fails if any held value no longer equals its deep copy. It
// compares representations directly: EqualMappings would take the
// shared-array shortcut that aliasing defeats.
func (h *heldValues) check(t *testing.T, when string) {
	t.Helper()
	for _, x := range h.maps {
		if !slices.Equal(x.m.maplets, x.want) {
			t.Fatalf("%s: held %s changed after hand-out:\nnow  %v\nwas  %v", when, x.what, x.m, Mapping{maplets: x.want})
		}
	}
	for _, x := range h.sets {
		if !slices.Equal(x.s.runs, x.want) {
			t.Fatalf("%s: held %s changed after hand-out: now %v, was %v", when, x.what, x.s, PageSet{runs: x.want})
		}
	}
}

// TestHandedOutValuesSurviveInPlaceSplices holds every abstraction
// the cache handed out across partial walks that change several
// separate runs at once (the first splice after a hand-out copies, the
// later ones land in place), and checks none of them moves.
func TestHandedOutValuesSurviveInPlaceSplices(t *testing.T) {
	tbl := buildRandomTable(t, 21)
	var c PgtableCache
	var h heldValues
	attrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateOwned}
	for i := uint64(0); i < 24; i++ {
		got, _ := interpretChecked(t, &c, tbl.Mem, tbl.Root(), fmt.Sprintf("step %d", i))
		h.pgtable(fmt.Sprintf("Interpret #%d", i), got)
		// Three far-apart pages: three changed runs in one walk.
		for _, va := range []uint64{0x4000_0000 + i<<arch.PageShift, 0x4010_0000 + i<<arch.PageShift,
			0x4060_0000 + 2*i<<arch.PageShift} {
			if err := tbl.Map(va, arch.PageSize, arch.PhysAddr(0x8880000+i<<arch.PageShift), attrs, true); err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 4 {
			if err := tbl.Annotate(0x4020_0000+i<<arch.PageShift, 3*arch.PageSize, 2); err != nil {
				t.Fatal(err)
			}
		}
		h.check(t, fmt.Sprintf("Interpret step %d", i))
	}
	if st := c.Stats(); st.PartialWalks == 0 {
		t.Fatalf("no partial walks: %+v", st)
	}
}

// TestRecorderHandOutsSurviveInPlaceSplices is the same check on a
// running oracle: the host cache's projection and footprint, and
// checkpoints of the shared state, held while hypercalls drive partial
// walks of every cache.
func TestRecorderHandOutsSurviveInPlaceSplices(t *testing.T) {
	s := newSys(t)
	s.rec.VerifyCache = true
	var h heldValues
	hold := func(when string) {
		host, fp, _ := s.rec.hostCache.abstract(s.hv)
		h.mapping(when+" host annot", host.Annot)
		h.mapping(when+" host shared", host.Shared)
		h.pageSet(when+" host footprint", fp)
		h.state(when+" checkpoint", s.rec.Checkpoint().shared)
	}
	hold("boot")
	for i := uint64(0); i < 12; i++ {
		when := fmt.Sprintf("round %d", i)
		s.touch(t, 0, arch.IPA(s.hostPFN(400+8*i).Phys()), true)
		s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1000+2*i)))
		s.hvc(t, 1, hyp.HCHostShareHyp, uint64(s.hostPFN(1001+2*i)))
		hold(when + " shared")
		s.hvc(t, 0, hyp.HCHostDonateHyp, uint64(s.hostPFN(700+3*i)), 2)
		if i > 0 {
			s.hvc(t, 1, hyp.HCHostUnshareHyp, uint64(s.hostPFN(1000+2*(i-1))))
		}
		hold(when + " donated")
		h.check(t, when)
	}
	// A VM brings a guest cache, a teardown a reclaim set.
	fullScenario(t, s)
	hold("scenario")
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1100)))
	h.check(t, "after scenario")
	s.mustClean(t)
}
