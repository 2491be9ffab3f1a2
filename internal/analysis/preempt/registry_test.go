package preempt

import (
	"sort"
	"testing"
)

func TestGeneratedTable(t *testing.T) {
	pts := Points()
	if len(pts) == 0 {
		t.Fatal("generated table is empty")
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Kind < b.Kind
	}) {
		t.Error("table not sorted by (file, line, col, kind)")
	}
	seen := map[uint64]bool{}
	for _, p := range pts {
		if p.ID == 0 {
			t.Errorf("%s:%d has zero ID", p.File, p.Line)
		}
		if p.ID == PointBoundary || p.ID == PointLockWait {
			t.Errorf("%s:%d collides with reserved pseudo-point ID %d", p.File, p.Line, p.ID)
		}
		if seen[p.ID] {
			t.Errorf("duplicate ID %#x", p.ID)
		}
		seen[p.ID] = true
		switch p.Kind {
		case KindLockAcquire, KindLockRelease, KindTLBI, KindVisitorStep:
		default:
			t.Errorf("%s:%d has unknown kind %q", p.File, p.Line, p.Kind)
		}
	}
}

func TestByIDAndByKind(t *testing.T) {
	pts := Points()
	for _, p := range pts {
		got, ok := ByID(p.ID)
		if !ok || got != p {
			t.Fatalf("ByID(%#x) = %+v, %v; want %+v", p.ID, got, ok, p)
		}
	}
	if _, ok := ByID(0xdeadbeef); ok {
		t.Error("ByID found a point for an unknown ID")
	}
	total := 0
	for _, k := range []Kind{KindLockAcquire, KindLockRelease, KindTLBI, KindVisitorStep} {
		byKind := ByKind(k)
		for _, p := range byKind {
			if p.Kind != k {
				t.Errorf("ByKind(%s) returned %+v", k, p)
			}
		}
		total += len(byKind)
	}
	if total != len(pts) {
		t.Errorf("ByKind partitions cover %d points, table has %d", total, len(pts))
	}
	// The table must contain all four kinds: a missing kind means the
	// extractor lost a whole class of interleaving sites.
	for _, k := range []Kind{KindLockAcquire, KindLockRelease, KindTLBI, KindVisitorStep} {
		if len(ByKind(k)) == 0 {
			t.Errorf("no %s points in the table", k)
		}
	}
}
