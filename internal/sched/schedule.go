// Package sched is the deterministic cooperative multi-vCPU scheduler:
// each virtual CPU's hypercall stream runs on its own goroutine, but
// exactly one holds the run token at a time, and the token changes
// hands only at preemption points — the points declared with
// preempt.At plus two pseudo-points (op boundaries and lock-wait
// re-grants). Every handoff is recorded as a (vCPU, point) step; the
// resulting Schedule replays bit-identically on unchanged source, and
// fails loudly — not by silent divergence — when no registered point
// has a recorded point ID.
//
// The protocol is token passing, not a central dispatcher: the parking
// vCPU itself picks the successor (under the scheduler mutex) and sends
// on the successor's buffered grant channel before waiting on its own.
// That gives the race detector a happens-before edge across every
// handoff, so shared single-owner state (the replay translation maps,
// the hypervisor model) is provably serialised.
//
// A scheduler is bound to the system it drives, not to goroutines: Run
// binds the system's preempt.Domain, which the system's spinlocks, TLB
// and page tables report their crossings to. With one token, a
// crossing on a bound domain is the running vCPU's, so routing it
// needs no goroutine identity — no stack introspection, and no
// process-global hook shared between the concurrent schedulers of
// campaign workers. Systems nobody schedules never reach a scheduler.
package sched

import (
	"fmt"
	"strings"

	"ghostspec/internal/analysis/preempt"
)

// Step is one scheduling decision: at preemption point Point, the run
// token was granted to vCPU VCPU. Point is either the stable ID of a
// point declared with preempt.At or one of the reserved pseudo-points
// (PointBoundary between trace ops, PointLockWait after a contended
// spinlock was released to the granted vCPU).
type Step struct {
	VCPU  int
	Point uint64
}

// String renders the step compactly: "v0@op" for an op boundary,
// "v1@lock" for a lock-wait re-grant, the point's name for a
// registered point ("v1@hyp.hostShareHyp:lock-acquire:host#0"), and
// the raw hex ID for a point no longer registered (a stale schedule).
func (st Step) String() string {
	switch st.Point {
	case preempt.PointBoundary:
		return fmt.Sprintf("v%d@op", st.VCPU)
	case preempt.PointLockWait:
		return fmt.Sprintf("v%d@lock", st.VCPU)
	}
	if p, ok := preempt.ByID(st.Point); ok {
		return fmt.Sprintf("v%d@%s", st.VCPU, p)
	}
	return fmt.Sprintf("v%d@%#x", st.VCPU, st.Point)
}

// Schedule is a replayable sequence of scheduling decisions. It is
// meaningful only together with the trace it was recorded against and
// unchanged preemption points.
type Schedule struct {
	Steps []Step
}

// Len returns the number of decisions.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Steps)
}

// String renders the schedule as space-separated steps.
func (s *Schedule) String() string {
	if s == nil || len(s.Steps) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(s.Steps))
	for i, st := range s.Steps {
		parts[i] = st.String()
	}
	return strings.Join(parts, " ")
}

// Validate checks every step against the registered preemption
// points. A schedule recorded against different source must fail
// here, loudly, rather than replay as something else: a point ID is
// the hash of the point's name, so adding, removing or renaming a
// point invalidates the recorded IDs.
func (s *Schedule) Validate(ncpus int) error {
	if s == nil {
		return nil
	}
	for i, st := range s.Steps {
		if st.VCPU < 0 || st.VCPU >= ncpus {
			return fmt.Errorf("sched: schedule step %d grants vCPU %d but the scheduler has %d vCPUs",
				i, st.VCPU, ncpus)
		}
		if !preempt.Known(st.Point) {
			return fmt.Errorf("sched: schedule step %d references preemption point %#x, which is not in "+
				"the current table: a point was added, removed or renamed since this schedule was recorded "+
				"(re-record the schedule)", i, st.Point)
		}
	}
	return nil
}

// Clone returns a deep copy, so recorded schedules can outlive the
// scheduler that produced them.
func (s *Schedule) Clone() *Schedule {
	if s == nil {
		return nil
	}
	c := &Schedule{Steps: make([]Step, len(s.Steps))}
	copy(c.Steps, s.Steps)
	return c
}
