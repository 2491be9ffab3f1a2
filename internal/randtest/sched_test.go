package randtest

import (
	"reflect"
	"testing"
)

// splitByCPUAppend is SplitByCPU as it was before it presized its
// streams: one append per op into unsized slices. It is the reference
// the presized version must match.
func splitByCPUAppend(tr *Trace, n int) [][]Op {
	streams := make([][]Op, n)
	for _, op := range tr.Ops {
		c := op.CPU % n
		if c < 0 {
			c = 0
		}
		op.CPU = c
		streams[c] = append(streams[c], op)
	}
	return streams
}

// TestSplitByCPUPresized: on seeded generated traces, with an op on a
// negative CPU mixed in, SplitByCPU returns exactly the streams the
// append-per-op reference returns, for every stream count, and
// allocates each non-empty stream once (plus its count and stream
// tables).
func TestSplitByCPUPresized(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		tr, _ := recordedRun(t, seed, 400, seed != 7)
		tr.Ops = append(tr.Ops, Op{Kind: OpTopup, CPU: -3})
		for n := 1; n <= 5; n++ {
			got, want := SplitByCPU(tr, n), splitByCPUAppend(tr, n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d n=%d: presized streams differ from the reference", seed, n)
			}
			nonEmpty := 0
			for c, s := range got {
				if len(s) != cap(s) {
					t.Errorf("seed %d n=%d: stream %d has len %d cap %d", seed, n, c, len(s), cap(s))
				}
				if len(s) > 0 {
					nonEmpty++
				}
			}
			allocs := testing.AllocsPerRun(5, func() { SplitByCPU(tr, n) })
			if allocs != float64(nonEmpty+2) {
				t.Errorf("seed %d n=%d: %v allocations, want %d (one per stream + 2)", seed, n, allocs, nonEmpty+2)
			}
		}
	}
}
