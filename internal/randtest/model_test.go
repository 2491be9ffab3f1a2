package randtest

import (
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/faults"
)

// scanPagesIn is pagesIn as a scan of every model page followed by a
// sort: the reference the model's per-state lists must agree with.
func scanPagesIn(m *model, st pageState) []arch.PFN {
	var out []arch.PFN
	for pfn, s := range m.pages {
		if s == st {
			out = append(out, pfn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestPagesInMatchesScan is the differential twin of the generator's
// per-state page lists: over many seeded guided and unguided runs, on
// clean and fault-injected builds, after every step each pagesIn list
// equals the scan-and-sort over the model's page map.
func TestPagesInMatchesScan(t *testing.T) {
	builds := [][]faults.Bug{nil, {faults.BugUnshareLeaveMapping}, {faults.BugShareRangeBadStop}}
	for seed := int64(1); seed <= 12; seed++ {
		for _, guided := range []bool{true, false} {
			bugs := builds[seed%int64(len(builds))]
			tr := newTester(t, seed, guided, bugs...)
			for step := 0; step < 800; step++ {
				tr.Step()
				for st := range nPageStates {
					if got, want := tr.m.pagesIn(st), scanPagesIn(tr.m, st); !slices.Equal(got, want) {
						t.Fatalf("seed %d guided=%v bugs=%v step %d: pagesIn(%d) = %v, scan = %v",
							seed, guided, bugs, step, st, got, want)
					}
				}
			}
		}
	}
}

// TestGeneratorTraceGolden pins the encoded traces of fixed seeds, so a
// change to how the generator keeps its model cannot silently change
// what it generates: the hashes were taken from the scan-and-sort
// model.
func TestGeneratorTraceGolden(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		guided bool
		ops    int
		hash   uint64
	}{
		{1, true, 1883, 0x641a870f1c87229},
		{7, true, 1864, 0xedb8a287b9a5aa94},
		{42, true, 1893, 0xc22452d3b8cc2248},
		{4242, true, 1871, 0x47a2769bb79cb0d5},
		{3, false, 1500, 0x5c2ee67cd042c96b},
	} {
		tr, _ := recordedRun(t, c.seed, 1500, c.guided)
		h := fnv.New64a()
		h.Write(EncodeTrace(tr))
		if tr.Len() != c.ops || h.Sum64() != c.hash {
			t.Errorf("seed %d guided=%v: %d ops, trace hash %#x; want %d ops, %#x",
				c.seed, c.guided, tr.Len(), h.Sum64(), c.ops, c.hash)
		}
	}
}
