// Package ghost is the paper's contribution: the reified ghost state —
// a mathematical abstraction of the hypervisor's concrete state
// expressed as ordinary data structures — together with the executable
// abstraction functions that compute it, the per-exception
// specification functions that compute expected post-states, and the
// runtime machinery that records, checks, diffs, and prints it all
// (paper §3–4).
//
// The package deliberately never reads concrete state through the
// hypervisor's own page-table helpers: abstraction functions interpret
// raw descriptors via package arch, preserving the hygiene split
// between implementation and specification that the paper insists on.
package ghost

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ghostspec/internal/arch"
)

// TargetKind distinguishes the two things a range of input addresses
// can abstractly map to.
type TargetKind uint8

const (
	// TargetMapped is a translation to physical memory with
	// attributes.
	TargetMapped TargetKind = iota
	// TargetAnnotated is pKVM's ownership annotation: unmapped, owned
	// by the named component.
	TargetAnnotated
)

// Target is the right-hand side of a maplet. For TargetMapped, page i
// of the maplet maps to Phys + i*PageSize with Attrs; for
// TargetAnnotated the range is unmapped and owned by Owner.
//
// Phys leads so that the byte-sized fields pack behind it: a Target is
// 16 bytes and a Maplet 32, not 24 and 40. Every copy-on-write copy of
// a maplet array moves these bytes.
type Target struct {
	Phys  arch.PhysAddr
	Kind  TargetKind
	Attrs arch.Attrs
	Owner uint8
}

// Mapped builds a mapped target.
func Mapped(phys arch.PhysAddr, attrs arch.Attrs) Target {
	return Target{Kind: TargetMapped, Phys: phys, Attrs: attrs}
}

// Annotated builds an ownership-annotation target.
func Annotated(owner uint8) Target {
	return Target{Kind: TargetAnnotated, Owner: owner}
}

// at returns the target as seen at page offset i within a maplet.
func (t Target) at(i uint64) Target {
	if t.Kind == TargetMapped {
		t.Phys += arch.PhysAddr(i << arch.PageShift)
	}
	return t
}

// continues reports whether next is what this target looks like
// nrPages further on — the coalescing criterion.
func (t Target) continues(nrPages uint64, next Target) bool {
	if t.Kind != next.Kind {
		return false
	}
	switch t.Kind {
	case TargetMapped:
		return t.Attrs == next.Attrs && t.Phys+arch.PhysAddr(nrPages<<arch.PageShift) == next.Phys
	default:
		return t.Owner == next.Owner
	}
}

func (t Target) String() string {
	if t.Kind == TargetAnnotated {
		return fmt.Sprintf("owner:%d", t.Owner)
	}
	return fmt.Sprintf("phys:%x %s", uint64(t.Phys), t.Attrs)
}

// Maplet is one maximally coalesced contiguous range of a mapping: VA
// (an input address, virtual or intermediate-physical) for NrPages
// pages, mapping to Target.
type Maplet struct {
	VA      uint64
	NrPages uint64
	Target  Target
}

func (m Maplet) end() uint64 { return m.VA + m.NrPages<<arch.PageShift }

// clip cuts m to the input range [lo, hi), which it must overlap.
func (m Maplet) clip(lo, hi uint64) Maplet {
	if m.VA < lo {
		skip := (lo - m.VA) >> arch.PageShift
		m = Maplet{VA: lo, NrPages: m.NrPages - skip, Target: m.Target.at(skip)}
	}
	if e := m.end(); e > hi {
		m.NrPages -= (e - hi) >> arch.PageShift
	}
	return m
}

func (m Maplet) String() string {
	return fmt.Sprintf("virt:%x+%d %s", m.VA, m.NrPages, m.Target)
}

// Mapping is a finite range map from page-aligned input addresses to
// targets: the extensional meaning of a page table (paper §3.1,
// "abstract mappings"). The representation is an ordered list of
// maximally coalesced maplets; all operations maintain that canonical
// form, so semantic equality is representation equality.
type Mapping struct {
	maplets []Maplet
	// cow marks the maplet backing array as possibly shared with
	// another Mapping produced by Clone; mutators copy it first (see
	// own). Clone sets the flag on both sides, so whichever alias
	// mutates first pays for the copy and the other keeps the original.
	cow bool
}

// Clone returns a semantically independent copy. The maplet slice is
// shared copy-on-write: both aliases are marked, and the first
// mutation on either side copies the backing array. The shared-ghost
// refresh at every lock release clones mappings that are almost never
// mutated afterwards, so sharing until proven otherwise removes an
// allocation proportional to the live maplet count from that hot path.
//
// An already-flagged receiver is left untouched, which makes Clone
// read-only on mappings that were themselves produced by Clone. That
// is what lets concurrent restores share one Checkpoint: the capture
// flagged every mapping in it, so the restore-side clones never write
// into the shared snapshot.
func (m *Mapping) Clone() Mapping {
	if !m.cow {
		m.cow = true
	}
	return Mapping{maplets: m.maplets, cow: true}
}

// own makes the receiver the sole owner of its backing array; every
// mutator but SpliceRange (which copies as it splices) calls it before
// writing. Mutators write an owned array in place, so a plain struct
// copy of an unflagged Mapping would see its original change under it:
// a Mapping handed to anyone who may keep it is always a Clone.
func (m *Mapping) own() {
	if m.cow {
		m.maplets = append([]Maplet(nil), m.maplets...)
		m.cow = false
	}
}

// IsEmpty reports whether the mapping has no pages.
func (m Mapping) IsEmpty() bool { return len(m.maplets) == 0 }

// NrPages returns the total number of mapped/annotated pages.
func (m Mapping) NrPages() uint64 {
	var n uint64
	for _, ml := range m.maplets {
		n += ml.NrPages
	}
	return n
}

// NrMaplets returns the number of coalesced ranges — the
// representation size the memory accounting reports.
func (m Mapping) NrMaplets() int { return len(m.maplets) }

// Maplets returns the underlying ranges, ascending and coalesced.
// Callers must not mutate the result.
func (m Mapping) Maplets() []Maplet { return m.maplets }

// Lookup returns the target of the page containing va.
func (m Mapping) Lookup(va uint64) (Target, bool) {
	va = arch.AlignDown(va)
	i := sort.Search(len(m.maplets), func(i int) bool { return m.maplets[i].end() > va })
	if i == len(m.maplets) || m.maplets[i].VA > va {
		return Target{}, false
	}
	ml := m.maplets[i]
	return ml.Target.at((va - ml.VA) >> arch.PageShift), true
}

// Grow pre-sizes the maplet slice for at least n further appends
// without reallocation. Interpretation walks know roughly how many
// maplets they will produce (the previous walk's count), so hinting
// turns the Extend stream's repeated slice growth into one
// allocation.
func (m *Mapping) Grow(n int) {
	if n <= 0 || (!m.cow && cap(m.maplets)-len(m.maplets) >= n) {
		return
	}
	ml := make([]Maplet, len(m.maplets), len(m.maplets)+n)
	copy(ml, m.maplets)
	m.maplets = ml
	m.cow = false
}

// Extend appends a range during in-order construction (the abstraction
// function's extend_mapping_coalesce, Fig 2). va must be at or past
// the end of the mapping; adjacent compatible ranges coalesce.
func (m *Mapping) Extend(va uint64, nrPages uint64, t Target) {
	if nrPages == 0 {
		return
	}
	m.own()
	if n := len(m.maplets); n > 0 {
		last := &m.maplets[n-1]
		if va < last.end() {
			panic(fmt.Sprintf("ghost: out-of-order Extend at %#x (end %#x)", va, last.end()))
		}
		if va == last.end() && last.Target.continues(last.NrPages, t) {
			last.NrPages += nrPages
			return
		}
	}
	m.maplets = append(m.maplets, Maplet{VA: va, NrPages: nrPages, Target: t})
}

// Set overwrites [va, va+nrPages*4K) with the target, replacing
// whatever was there — the specification functions' mapping_update.
func (m *Mapping) Set(va uint64, nrPages uint64, t Target) {
	m.SpliceRange(va, nrPages, []Maplet{{VA: va, NrPages: nrPages, Target: t}})
}

// Remove erases [va, va+nrPages*4K) from the mapping, splitting
// maplets as needed.
func (m *Mapping) Remove(va uint64, nrPages uint64) {
	m.SpliceRange(va, nrPages, nil)
}

// appendRange appends to out the maplets of [va, va+nrPages*4K), cut
// at the range ends, and returns the extended slice.
func (m Mapping) appendRange(out []Maplet, va, nrPages uint64) []Maplet {
	end := va + nrPages<<arch.PageShift
	lo := sort.Search(len(m.maplets), func(i int) bool { return m.maplets[i].end() > va })
	for _, ml := range m.maplets[lo:] {
		if ml.VA >= end {
			break
		}
		out = append(out, ml.clip(va, end))
	}
	return out
}

// rangeEqual reports whether the maplets of [va, va+nrPages*4K), cut
// at the range ends, are exactly repl: whether SpliceRange(va,
// nrPages, repl) would leave m as it is.
func (m Mapping) rangeEqual(va, nrPages uint64, repl []Maplet) bool {
	end := va + nrPages<<arch.PageShift
	lo := sort.Search(len(m.maplets), func(i int) bool { return m.maplets[i].end() > va })
	n := 0
	for _, ml := range m.maplets[lo:] {
		if ml.VA >= end {
			break
		}
		if n == len(repl) || repl[n] != ml.clip(va, end) {
			return false
		}
		n++
	}
	return n == len(repl)
}

// SpliceRange replaces [va, va+nrPages*4K) wholesale with repl, whose
// maplets must be ascending, lie entirely within the range and not
// alias the receiver. It is mapping_update for the specification and
// the incremental abstraction's graft: the re-interpreted meaning of
// some descriptors replaces the cached meaning of their input range.
// The maplets that straddle the range ends are cut and every joint is
// coalesced, so the result is bit-for-bit the mapping a full
// re-interpretation would have built.
//
// A receiver that owns its maplet array is spliced in place: only the
// maplets from the range on move, and nothing is allocated unless the
// array must grow. A receiver shared copy-on-write is built into one
// fresh array instead, which the receiver then owns.
func (m *Mapping) SpliceRange(va uint64, nrPages uint64, repl []Maplet) {
	if nrPages == 0 {
		return
	}
	end := va + nrPages<<arch.PageShift
	for i, ml := range repl {
		if ml.VA < va || ml.end() > end || (i > 0 && repl[i-1].end() > ml.VA) {
			panic(fmt.Sprintf("ghost: splice replacement %v outside [%#x,%#x) or out of order", ml, va, end))
		}
	}
	ms := m.maplets
	// ms[lo:hi] are the maplets overlapping the range.
	lo := sort.Search(len(ms), func(i int) bool { return ms[i].end() > va })
	hi := lo
	for hi < len(ms) && ms[hi].VA < end {
		hi++
	}
	if lo == hi && len(repl) == 0 {
		return
	}
	// The new middle is the cut remainders around repl: k maplets in
	// place of ms[lo:hi].
	var head, tail Maplet
	k := len(repl)
	cutHead := lo < hi && ms[lo].VA < va
	if cutHead {
		head = Maplet{VA: ms[lo].VA, NrPages: (va - ms[lo].VA) >> arch.PageShift, Target: ms[lo].Target}
		k++
	}
	cutTail := lo < hi && ms[hi-1].end() > end
	if cutTail {
		ml := ms[hi-1]
		skip := (end - ml.VA) >> arch.PageShift
		tail = Maplet{VA: end, NrPages: ml.NrPages - skip, Target: ml.Target.at(skip)}
		k++
	}
	n := len(ms) - (hi - lo) + k
	if m.cow {
		out := make([]Maplet, n)
		copy(out, ms[:lo])
		copy(out[lo+k:], ms[hi:])
		ms = out
		m.cow = false
	} else {
		old := len(ms)
		if n > old {
			ms = slices.Grow(ms, n-old)[:n]
		}
		copy(ms[lo+k:], ms[hi:old])
		ms = ms[:n]
	}
	w := lo
	if cutHead {
		ms[w] = head
		w++
	}
	w += copy(ms[w:], repl)
	if cutTail {
		ms[w] = tail
	}
	// Only the joints from the left neighbour to the right one can
	// have become coalescible.
	m.maplets = coalesceWindow(ms, max(lo-1, 0), min(lo+k+1, n))
}

// coalesceWindow merges continuing neighbours among ms[from:to] and
// closes the gap it leaves by moving ms[to:] down. Outside the window
// ms must already be coalesced.
func coalesceWindow(ms []Maplet, from, to int) []Maplet {
	if to-from < 2 {
		return ms
	}
	w := from
	for r := from + 1; r < to; r++ {
		if last := &ms[w]; last.end() == ms[r].VA && last.Target.continues(last.NrPages, ms[r].Target) {
			last.NrPages += ms[r].NrPages
			continue
		}
		w++
		ms[w] = ms[r]
	}
	if w+1 == to {
		return ms
	}
	return ms[:w+1+copy(ms[w+1:], ms[to:])]
}

// EqualMappings reports extensional equality. Because both sides are
// canonical, this is plain structural comparison.
func EqualMappings(a, b Mapping) bool {
	if len(a.maplets) != len(b.maplets) {
		return false
	}
	if len(a.maplets) == 0 || &a.maplets[0] == &b.maplets[0] {
		return true // one backing array: a clone compared with its original
	}
	for i := range a.maplets {
		if a.maplets[i] != b.maplets[i] {
			return false
		}
	}
	return true
}

// PageDiff is one page-level difference between two mappings, in the
// paper's +/- diff notation.
type PageDiff struct {
	// Added is true for a page present in the new mapping and not the
	// old (a "+" line), false for the reverse.
	Added  bool
	VA     uint64
	Target Target
}

func (d PageDiff) String() string {
	sign := "-"
	if d.Added {
		sign = "+"
	}
	return fmt.Sprintf("%svirt:%x %s", sign, d.VA, d.Target)
}

// diffEntryCap bounds the entries DiffMappings returns. A wildly wrong
// state (say, a corrupted root descriptor annotating half the address
// space) differs in hundreds of millions of pages; materialising them
// all turns a failure report into a multi-minute allocation storm. The
// renderer prints 16 lines anyway.
const diffEntryCap = 8192

// DiffMappings returns the page-granular differences from old to new:
// pages removed, pages added, and pages whose target changed (reported
// as a remove plus an add), in ascending VA order, truncated at
// diffEntryCap entries.
//
// Both sides are canonical maplet lists, so this is a two-pointer
// interval sweep. Within a window where both sides cover the same
// pages, the targets either agree everywhere or disagree everywhere
// (page i's target is a linear function of the window's first target),
// so equal windows are skipped in O(1) without per-page expansion.
func DiffMappings(old, new Mapping) []PageDiff {
	var diffs []PageDiff
	emitRun := func(added bool, m Maplet) {
		for k := uint64(0); k < m.NrPages && len(diffs) < diffEntryCap; k++ {
			diffs = append(diffs, PageDiff{Added: added, VA: m.VA + k<<arch.PageShift, Target: m.Target.at(k)})
		}
	}
	// advance consumes pages off the front of a maplet fragment.
	advance := func(m *Maplet, pages uint64) {
		m.VA += pages << arch.PageShift
		m.Target = m.Target.at(pages)
		m.NrPages -= pages
	}

	var o, n Maplet
	i, j := 0, 0
	for len(diffs) < diffEntryCap {
		if o.NrPages == 0 && i < len(old.maplets) {
			o, i = old.maplets[i], i+1
		}
		if n.NrPages == 0 && j < len(new.maplets) {
			n, j = new.maplets[j], j+1
		}
		if o.NrPages == 0 && n.NrPages == 0 {
			break
		}
		switch {
		case n.NrPages == 0 || (o.NrPages > 0 && o.end() <= n.VA):
			emitRun(false, o)
			o.NrPages = 0
		case o.NrPages == 0 || n.end() <= o.VA:
			emitRun(true, n)
			n.NrPages = 0
		case o.VA < n.VA:
			head := Maplet{VA: o.VA, NrPages: (n.VA - o.VA) >> arch.PageShift, Target: o.Target}
			emitRun(false, head)
			advance(&o, head.NrPages)
		case n.VA < o.VA:
			head := Maplet{VA: n.VA, NrPages: (o.VA - n.VA) >> arch.PageShift, Target: n.Target}
			emitRun(true, head)
			advance(&n, head.NrPages)
		default: // aligned overlap window
			w := o.NrPages
			if n.NrPages < w {
				w = n.NrPages
			}
			if o.Target != n.Target {
				for k := uint64(0); k < w && len(diffs) < diffEntryCap; k++ {
					va := o.VA + k<<arch.PageShift
					diffs = append(diffs,
						PageDiff{Added: false, VA: va, Target: o.Target.at(k)},
						PageDiff{Added: true, VA: va, Target: n.Target.at(k)})
				}
			}
			advance(&o, w)
			advance(&n, w)
		}
	}
	return diffs
}

func (m Mapping) String() string {
	if len(m.maplets) == 0 {
		return "{}"
	}
	var b strings.Builder
	for i, ml := range m.maplets {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(ml.String())
	}
	return b.String()
}
