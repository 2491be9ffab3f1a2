package preempt_test

import (
	"strings"
	"testing"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/hyp"
)

// Every crossing of a scheduled run is also resolved from the full
// stack, and a disagreement with the fast path panics.
func init() { preempt.VerifyResolution = true }

// recorder is a preempt.Scheduler that logs crossings without parking.
type recorder struct{ seen []preempt.Point }

func (r *recorder) Crossing(p preempt.Point) { r.seen = append(r.seen, p) }

func boot(t testing.TB) *hyp.Hypervisor {
	t.Helper()
	hv, err := hyp.New(hyp.Config{NrCPUs: 2})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return hv
}

// queueMiss crosses QueueGuestOp's VM-table lock acquire point (no VM
// has handle 0, so it touches nothing else). Its deferred release runs
// from the function's return, a frame that names no table point.
func queueMiss(hv *hyp.Hypervisor) { hv.QueueGuestOp(0, 0, hyp.GuestOp{}) }

// TestDomainCrossings checks that a system's crossings reach the
// scheduler bound to its own domain, resolved to table points, and
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
			t.Fatalf("crossing %+v is not a table point", p)
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
	nilDom.FireCaller(preempt.KindLockAcquire) // must not panic
	nilDom.Fire(&preempt.ByKind(preempt.KindVisitorStep)[0])

	hv.Preempt().Bind(&r)
	defer hv.Preempt().Bind(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("binding a bound domain did not panic")
		}
	}()
	hv.Preempt().Bind(&recorder{})
}

// TestCrossingAllocationFree pins the cost of a crossing: on a bound
// domain with a warm memo it allocates nothing, and unbound it is
// a single atomic load. The full-stack twin symbolizes every crossing,
// so it is off here.
func TestCrossingAllocationFree(t *testing.T) {
	preempt.VerifyResolution = false
	defer func() { preempt.VerifyResolution = true }()
	hv := boot(t)
	r := &recorder{seen: make([]preempt.Point, 0, 1024)}
	hv.Preempt().Bind(r)
	queueMiss(hv) // warm the memo
	if n := testing.AllocsPerRun(100, func() { queueMiss(hv) }); n != 0 {
		t.Errorf("bound crossing allocates %v times per call", n)
	}
	if len(r.seen) == 0 {
		t.Fatal("bound domain saw no crossings")
	}
	hv.Preempt().Bind(nil)
	if n := testing.AllocsPerRun(100, func() { queueMiss(hv) }); n != 0 {
		t.Errorf("unbound crossing allocates %v times per call", n)
	}
}
