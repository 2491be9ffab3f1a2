package preempt_test

import (
	"strings"
	"testing"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/spinlock"
)

// recorder is a preempt.Scheduler that logs crossings without parking.
type recorder struct{ seen []*preempt.Point }

func (r *recorder) Crossing(p *preempt.Point) { r.seen = append(r.seen, p) }

// The points the spinlock and TLB crossings below pass.
var (
	testAcquire = preempt.At(preempt.KindLockAcquire, "vms", "allocTest", 0)
	testRelease = preempt.At(preempt.KindLockRelease, "vms", "allocTest", 0)
	testTLBI    = preempt.At(preempt.KindTLBI, "", "allocTest", 0)
)

func boot(t testing.TB) *hyp.Hypervisor {
	t.Helper()
	hv, err := hyp.New(hyp.Config{NrCPUs: 2})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return hv
}

// queueMiss crosses QueueGuestOp's VM-table lock acquire point (no VM
// has handle 0, so it touches nothing else). Its deferred bare Unlock
// crosses nothing.
func queueMiss(hv *hyp.Hypervisor) { hv.QueueGuestOp(0, 0, hyp.GuestOp{}) }

// TestDomainCrossings checks that a system's crossings reach the
// scheduler bound to its own domain, as registered points, and
// nowhere else.
func TestDomainCrossings(t *testing.T) {
	hv, other := boot(t), boot(t)
	var r recorder
	hv.Preempt().Bind(&r)
	queueMiss(other) // another system: unbound, not reported
	queueMiss(hv)
	hv.Preempt().Bind(nil)
	queueMiss(hv)

	var got []string
	for _, p := range r.seen {
		if q, ok := preempt.ByID(p.ID); !ok || q != p {
			t.Fatalf("crossing %v is not a registered point", p)
		}
		got = append(got, string(p.Kind)+"@"+p.Func)
	}
	if want := "lock-acquire@QueueGuestOp"; strings.Join(got, " ") != want {
		t.Fatalf("crossings = %v, want %s", got, want)
	}

	var nilDom *preempt.Domain
	if nilDom.Bound() != nil {
		t.Fatal("nil domain reports a scheduler")
	}
	nilDom.Fire(testAcquire) // must not panic

	hv.Preempt().Bind(&r)
	defer hv.Preempt().Bind(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("binding a bound domain did not panic")
		}
	}()
	hv.Preempt().Bind(&recorder{})
}

// TestCrossingAllocationFree pins the cost of a crossing: bound, a
// hypervisor lock crossing, a spinlock's LockAt/UnlockAt and a TLB
// invalidation allocate nothing (the point is passed, not looked up
// or copied), and unbound a crossing is a single atomic load.
func TestCrossingAllocationFree(t *testing.T) {
	hv := boot(t)
	var dom preempt.Domain
	l := spinlock.New("alloc-test", nil)
	l.SetDomain(&dom)
	tlb := arch.NewTLB(hv.Mem)
	tlb.SetDomain(&dom)
	crossings := map[string]func(){
		"QueueGuestOp": func() { queueMiss(hv) },
		"LockAt/UnlockAt": func() {
			l.LockAt(testAcquire)
			l.UnlockAt(testRelease)
		},
		"InvalidateRange": func() { tlb.InvalidateRange(testTLBI, 1, 0, arch.PageSize) },
	}

	r := &recorder{seen: make([]*preempt.Point, 0, 1024)}
	hv.Preempt().Bind(r)
	dom.Bind(r)
	for name, f := range crossings {
		r.seen = r.seen[:0]
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("bound %s crossing allocates %v times per call", name, n)
		}
		if len(r.seen) == 0 {
			t.Errorf("bound %s saw no crossings", name)
		}
	}
	hv.Preempt().Bind(nil)
	dom.Bind(nil)
	for name, f := range crossings {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("unbound %s crossing allocates %v times per call", name, n)
		}
	}
}
