package hyp

import (
	"fmt"
	"strings"
	"testing"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/faults"
)

// crossLog is a preempt.Scheduler that logs the lock and TLBI points
// crossed, by name, without parking. Visitor steps (one per page-table
// entry a walk visits) are left out.
type crossLog struct{ seen []string }

func (l *crossLog) Crossing(p *preempt.Point) {
	if p.Kind != preempt.KindVisitorStep {
		l.seen = append(l.seen, fmt.Sprintf("%s %s#%d@%s", p.Kind, p.Component, p.Ordinal, p.Func))
	}
}

// take returns and clears the log, one crossing per line.
func (l *crossLog) take() string {
	s := strings.Join(l.seen, "\n")
	l.seen = l.seen[:0]
	return s
}

// TestCrossingOrder pins the lock and TLBI points hypercalls cross, in
// order: a share, an unshare with and without its host TLBI suppressed
// (BugUnshareSkipTLBI), and a VM teardown, whose deferred VM-table
// release crosses unlockVMs' own point.
func TestCrossingOrder(t *testing.T) {
	const (
		share = `lock-acquire host#0@hostShareHyp
lock-acquire hyp#0@hostShareHyp
lock-release hyp#0@hostShareHyp
lock-release host#0@hostShareHyp`
		unshare = `lock-acquire host#0@hostUnshareHyp
lock-acquire hyp#0@hostUnshareHyp
tlbi #0@mutateRange
tlbi #0@mutateRange
lock-release hyp#0@hostUnshareHyp
lock-release host#0@hostUnshareHyp`
		// The host entry's TLBI is skipped; the hyp unmap's stays.
		unshareSkipTLBI = `lock-acquire host#0@hostUnshareHyp
lock-acquire hyp#0@hostUnshareHyp
tlbi #0@mutateRange
lock-release hyp#0@hostUnshareHyp
lock-release host#0@hostUnshareHyp`
		teardown = `lock-acquire vms#0@teardownVM
lock-acquire guest#0@teardownVM
tlbi #0@teardownVM
lock-release guest#0@teardownVM
lock-release vms#0@unlockVMs`
	)
	for _, c := range []struct {
		name    string
		bugs    []faults.Bug
		unshare string
	}{
		{"clean", nil, unshare},
		{"unshare-skip-tlbi", []faults.Bug{faults.BugUnshareSkipTLBI}, unshareSkipTLBI},
	} {
		hv := newTestHV(t, c.bugs...)
		h := setupVM(t, hv, 0, 100)
		pfn := hostPFN(hv, 0)
		var log crossLog
		hv.Preempt().Bind(&log)
		for _, step := range []struct {
			name string
			id   HC
			arg  uint64
			want string
		}{
			{"share", HCHostShareHyp, uint64(pfn), share},
			{"unshare", HCHostUnshareHyp, uint64(pfn), c.unshare},
			{"teardown", HCTeardownVM, uint64(h), teardown},
		} {
			if ret := hvc(t, hv, 0, step.id, step.arg); ret != 0 {
				t.Fatalf("%s %s: %v", c.name, step.name, Errno(ret))
			}
			if got := log.take(); got != step.want {
				t.Errorf("%s %s crossed\n%s\nwant\n%s", c.name, step.name, got, step.want)
			}
		}
		hv.Preempt().Bind(nil)
	}
}
