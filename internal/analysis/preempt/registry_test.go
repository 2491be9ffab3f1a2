package preempt

import (
	"hash/fnv"
	"strings"
	"testing"
)

// TestRegistry checks every point registered in this test binary (the
// hypervisor's and the page tables', linked by the domain tests, plus
// the tests' own): its ID is the FNV-1a hash of its name, is unique,
// and is not a reserved pseudo-point ID, and its kind is one of the
// four.
func TestRegistry(t *testing.T) {
	pts := Points()
	if len(pts) == 0 {
		t.Fatal("no points registered")
	}
	seen := map[uint64]bool{}
	for _, p := range pts {
		h := fnv.New64a()
		h.Write([]byte(p.Name()))
		if p.ID != h.Sum64() {
			t.Errorf("%s: ID %#x is not the FNV-1a hash of its name", p.Name(), p.ID)
		}
		if p.ID == PointBoundary || p.ID == PointLockWait {
			t.Errorf("%s collides with reserved pseudo-point ID %d", p.Name(), p.ID)
		}
		if seen[p.ID] {
			t.Errorf("duplicate ID %#x", p.ID)
		}
		seen[p.ID] = true
		switch p.Kind {
		case KindLockAcquire, KindLockRelease, KindTLBI, KindVisitorStep:
		default:
			t.Errorf("%s has unknown kind %q", p.Name(), p.Kind)
		}
	}
}

var testPoint = At(KindLockAcquire, "vms", "testFunc", 0)

// TestByID checks that a declared point is registered under its
// package and looked up by its ID as the declared value itself, and
// that an unknown ID is neither a point nor Known.
func TestByID(t *testing.T) {
	if want := "lock-acquire|vms|ghostspec/internal/analysis/preempt.testFunc|0"; testPoint.Name() != want {
		t.Errorf("Name() = %q, want %q", testPoint.Name(), want)
	}
	if want := "preempt.testFunc:lock-acquire:vms#0"; testPoint.String() != want {
		t.Errorf("String() = %q, want %q", testPoint.String(), want)
	}
	if p, ok := ByID(testPoint.ID); !ok || p != testPoint || !Known(testPoint.ID) {
		t.Errorf("ByID(%#x) = %v, %v; want the declared point", testPoint.ID, p, ok)
	}
	if _, ok := ByID(0xdeadbeef); ok || Known(0xdeadbeef) {
		t.Error("an unknown ID is a point")
	}
	if !Known(PointBoundary) || !Known(PointLockWait) {
		t.Error("a reserved pseudo-point is not Known")
	}
}

// TestDuplicateAtPanics checks that a point cannot be declared twice:
// two declarations would name one call, and their crossings would be
// indistinguishable in a schedule.
func TestDuplicateAtPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "declared twice") {
			t.Fatalf("a second At of the same point did not panic: %v", r)
		}
	}()
	At(KindLockAcquire, "vms", "testFunc", 0)
}
