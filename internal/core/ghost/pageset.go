package ghost

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ghostspec/internal/arch"
)

// pfnRun is one maximal run of consecutive frames: [Start, Start+N).
type pfnRun struct {
	Start arch.PFN
	N     uint64
}

func (r pfnRun) end() arch.PFN { return r.Start + arch.PFN(r.N) }

// PageSet is a set of physical frames; used for page-table footprints
// and the reclaim set. The representation is a sorted list of maximal
// runs — footprints and reclaim sets are overwhelmingly clustered
// (carve-out pools, donated ranges), so runs keep the set small and,
// more importantly, make the separation check a linear merge of two
// sorted lists instead of a nested iteration over hash maps. All
// operations maintain the canonical form (sorted, non-overlapping,
// non-adjacent), so set equality is representation equality.
type PageSet struct {
	runs []pfnRun
}

// NewPageSet builds a set from the given frames.
func NewPageSet(pfns ...arch.PFN) PageSet {
	var s PageSet
	for _, pfn := range pfns {
		s.Add(pfn)
	}
	return s
}

// Len returns the number of frames in the set.
func (s PageSet) Len() int {
	var n uint64
	for _, r := range s.runs {
		n += r.N
	}
	return int(n)
}

// IsEmpty reports whether the set has no frames.
func (s PageSet) IsEmpty() bool { return len(s.runs) == 0 }

// Contains reports membership.
func (s PageSet) Contains(pfn arch.PFN) bool {
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].end() > pfn })
	return i < len(s.runs) && s.runs[i].Start <= pfn
}

// Add inserts one frame.
func (s *PageSet) Add(pfn arch.PFN) { s.AddRange(pfn, 1) }

// AddRange inserts the n consecutive frames starting at pfn, merging
// with any runs it touches. Ascending construction (the way footprints
// and the reclaim set are built) stays on the allocation-free append
// path; out-of-order inserts splice in place.
func (s *PageSet) AddRange(pfn arch.PFN, n uint64) {
	if n == 0 {
		return
	}
	end := pfn + arch.PFN(n)
	// Fast path: at or past the tail — extend the last run or append.
	if k := len(s.runs); k > 0 && pfn >= s.runs[k-1].Start {
		last := &s.runs[k-1]
		if pfn > last.end() {
			s.runs = append(s.runs, pfnRun{Start: pfn, N: n})
		} else if end > last.end() {
			last.N = uint64(end - last.Start)
		}
		return
	} else if k == 0 {
		s.runs = append(s.runs, pfnRun{Start: pfn, N: n})
		return
	}
	// First run that ends at or after pfn (candidates for merging).
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].end() >= pfn })
	j := i
	for j < len(s.runs) && s.runs[j].Start <= end {
		if s.runs[j].Start < pfn {
			pfn = s.runs[j].Start
		}
		if s.runs[j].end() > end {
			end = s.runs[j].end()
		}
		j++
	}
	merged := pfnRun{Start: pfn, N: uint64(end - pfn)}
	if i == j {
		// Pure insertion between runs: shift the tail right in place.
		s.runs = append(s.runs, pfnRun{})
		copy(s.runs[i+1:], s.runs[i:])
		s.runs[i] = merged
		return
	}
	s.runs[i] = merged
	s.runs = append(s.runs[:i+1], s.runs[j:]...)
}

// Remove deletes one frame if present, splitting its run.
func (s *PageSet) Remove(pfn arch.PFN) {
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].end() > pfn })
	if i == len(s.runs) || s.runs[i].Start > pfn {
		return
	}
	r := s.runs[i]
	var repl []pfnRun
	if pfn > r.Start {
		repl = append(repl, pfnRun{Start: r.Start, N: uint64(pfn - r.Start)})
	}
	if pfn+1 < r.end() {
		repl = append(repl, pfnRun{Start: pfn + 1, N: uint64(r.end() - pfn - 1)})
	}
	s.runs = append(s.runs[:i], append(repl, s.runs[i+1:]...)...)
}

// equalsAscending reports whether the set holds exactly the frames of
// pfns, which a current set lists ascending and without duplicates. It
// reads every element of pfns, in one merge against the runs, so a
// list changed anywhere (reordered or duplicated too) compares unequal.
func (s PageSet) equalsAscending(pfns []arch.PFN) bool {
	i := 0
	for _, r := range s.runs {
		if uint64(len(pfns)-i) < r.N {
			return false
		}
		for k := range r.N {
			if pfns[i] != r.Start+arch.PFN(k) {
				return false
			}
			i++
		}
	}
	return i == len(pfns)
}

// Clone returns an independent copy.
func (s PageSet) Clone() PageSet {
	if len(s.runs) == 0 {
		return PageSet{}
	}
	return PageSet{runs: append([]pfnRun(nil), s.runs...)}
}

// Equal reports set equality; canonical runs make it structural.
func (s PageSet) Equal(o PageSet) bool {
	if len(s.runs) != len(o.runs) {
		return false
	}
	for i := range s.runs {
		if s.runs[i] != o.runs[i] {
			return false
		}
	}
	return true
}

// ForEach calls f for every frame in ascending order.
func (s PageSet) ForEach(f func(arch.PFN)) {
	for _, r := range s.runs {
		for i := uint64(0); i < r.N; i++ {
			f(r.Start + arch.PFN(i))
		}
	}
}

// Sorted returns the frames in ascending order.
func (s PageSet) Sorted() []arch.PFN {
	out := make([]arch.PFN, 0, s.Len())
	s.ForEach(func(pfn arch.PFN) { out = append(out, pfn) })
	return out
}

// FirstOverlap returns the lowest frame present in both sets, if any —
// the separation check's linear merge-intersection: both run lists are
// sorted, so one pass over each suffices.
func (s PageSet) FirstOverlap(o PageSet) (arch.PFN, bool) {
	i, j := 0, 0
	for i < len(s.runs) && j < len(o.runs) {
		a, b := s.runs[i], o.runs[j]
		if a.end() <= b.Start {
			i++
			continue
		}
		if b.end() <= a.Start {
			j++
			continue
		}
		if a.Start > b.Start {
			return a.Start, true
		}
		return b.Start, true
	}
	return 0, false
}

// FirstOutside returns the lowest frame lying outside [lo, hi), if
// any — the carve-out containment check, linear in runs.
func (s PageSet) FirstOutside(lo, hi arch.PFN) (arch.PFN, bool) {
	for _, r := range s.runs {
		if r.Start < lo {
			return r.Start, true
		}
		if r.end() > hi {
			if r.Start >= hi {
				return r.Start, true
			}
			return hi, true
		}
	}
	return 0, false
}

func (s PageSet) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, pfn := range s.Sorted() {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%x", uint64(pfn))
	}
	b.WriteString("}")
	return b.String()
}

// MarshalJSON serialises the set as its run list, keeping traces
// stable and compact.
func (s PageSet) MarshalJSON() ([]byte, error) { return json.Marshal(s.runs) }

// UnmarshalJSON restores a set from a run list, verifying canonical
// form.
func (s *PageSet) UnmarshalJSON(b []byte) error {
	var runs []pfnRun
	if err := json.Unmarshal(b, &runs); err != nil {
		return err
	}
	for i, r := range runs {
		if r.N == 0 {
			return fmt.Errorf("ghost: page-set run %d empty", i)
		}
		if i > 0 && runs[i-1].end() >= r.Start {
			return fmt.Errorf("ghost: page-set runs %d/%d overlap or touch", i-1, i)
		}
	}
	s.runs = runs
	return nil
}
