package campaign

import (
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
)

// Factory boots a fresh system configured identically to the one that
// produced a finding (same injected bugs, same layout) with the oracle
// attached. The shrinker boots one per replay — reproduction recipes
// are trace-plus-boot-configuration, never warm state.
type Factory func() (*proxy.Driver, *ghost.Recorder, error)

// Shrink minimizes a failing trace by delta debugging: ddmin over
// chunk complements down to single-op granularity, then a linear
// polish pass removing ops one at a time, giving a near-1-minimal
// reproduction (every remaining op is individually necessary up to
// the replay budget). Each candidate replays deterministically on a
// fresh system; a candidate is kept when the oracle still alarms.
//
// It returns the minimized trace, the alarms it raises, the number of
// replays spent, and whether the original trace reproduced at all. A
// passing trace is returned unchanged with ok=false — shrinking a
// non-failure is a no-op. maxReplays bounds the work; on exhaustion
// the best trace so far is returned.
func Shrink(boot Factory, tr *randtest.Trace, maxReplays int) (*randtest.Trace, []ghost.Failure, int, bool) {
	replays := 0
	var lastFailures []ghost.Failure
	fails := func(ops []randtest.Op) bool {
		if replays >= maxReplays {
			return false
		}
		replays++
		d, rec, err := boot()
		if err != nil {
			return false
		}
		// Boot-layout alarms fire at attach; only replay on a clean boot.
		if len(rec.Failures()) == 0 {
			randtest.Replay(d, &randtest.Trace{Ops: ops})
		}
		if f := rec.Failures(); len(f) > 0 {
			lastFailures = f
			return true
		}
		return false
	}

	if !fails(tr.Ops) {
		return tr, nil, replays, false
	}
	// A finding that needs no ops at all (boot-layout class) shrinks
	// to the empty trace immediately.
	if fails(nil) {
		return &randtest.Trace{}, lastFailures, replays, true
	}

	cur := tr.Ops
	curFailures := lastFailures

	// ddmin: try dropping each of n chunks; on success restart with
	// the reduced trace, otherwise refine the granularity.
	n := 2
	for len(cur) >= 2 && replays < maxReplays {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(cur); lo += chunk {
			hi := min(lo+chunk, len(cur))
			cand := make([]randtest.Op, 0, len(cur)-(hi-lo))
			cand = append(cand, cur[:lo]...)
			cand = append(cand, cur[hi:]...)
			if fails(cand) {
				cur, curFailures = cand, lastFailures
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n = min(2*n, len(cur))
		}
	}

	// Linear polish: back-to-front single-op removal catches ops ddmin
	// left behind because their chunk-mates were load-bearing.
	for i := len(cur) - 1; i >= 0 && len(cur) >= 2 && replays < maxReplays; i-- {
		cand := make([]randtest.Op, 0, len(cur)-1)
		cand = append(cand, cur[:i]...)
		cand = append(cand, cur[i+1:]...)
		if fails(cand) {
			cur, curFailures = cand, lastFailures
		}
	}

	return &randtest.Trace{Ops: cur}, curFailures, replays, true
}

// ShrinkScheduled jointly minimizes a (trace, schedule) reproduction
// from a schedule-fuzzing finding. It is Shrink's ddmin with a
// scheduled replay predicate — every candidate trace re-runs split
// across nrCPUs vCPU streams under a fresh scheduler seeded with
// schedSeed, and "still fails" means the oracle alarms again or the
// scheduler itself errors (captured stream panic, abandonment) — then
// a second minimization over the schedule: the shortest recorded-
// schedule prefix that, replayed over the minimized trace with the
// remainder drained deterministically, still fails. The returned
// schedule is that prefix; together with the trace and the boot
// configuration it is the complete reproduction recipe.
func ShrinkScheduled(boot Factory, tr *randtest.Trace, schedSeed int64, nrCPUs, maxReplays int) (*randtest.Trace, *sched.Schedule, []ghost.Failure, int, bool) {
	replays := 0
	var lastFailures []ghost.Failure
	var lastSched *sched.Schedule
	attempt := func(ops []randtest.Op, policy sched.Option) bool {
		if replays >= maxReplays {
			return false
		}
		replays++
		d, rec, err := boot()
		if err != nil {
			return false
		}
		var runErr error
		if len(rec.Failures()) == 0 {
			s := sched.New(nrCPUs, policy)
			runErr = randtest.ReplayScheduled(d, &randtest.Trace{Ops: ops}, s)
			lastSched = s.Record()
		}
		if f := rec.Failures(); len(f) > 0 {
			lastFailures = f
			return true
		}
		if runErr != nil {
			lastFailures = nil
			return true
		}
		return false
	}
	seeded := func(ops []randtest.Op) bool {
		return attempt(ops, sched.WithSeed(uint64(schedSeed)))
	}

	if !seeded(tr.Ops) {
		return tr, nil, nil, replays, false
	}
	cur, curFailures, curSched := tr.Ops, lastFailures, lastSched
	if seeded(nil) {
		cur, curFailures, curSched = nil, lastFailures, lastSched
	}

	n := 2
	for len(cur) >= 2 && replays < maxReplays {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(cur); lo += chunk {
			hi := min(lo+chunk, len(cur))
			cand := make([]randtest.Op, 0, len(cur)-(hi-lo))
			cand = append(cand, cur[:lo]...)
			cand = append(cand, cur[hi:]...)
			if seeded(cand) {
				cur, curFailures, curSched = cand, lastFailures, lastSched
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n = min(2*n, len(cur))
		}
	}
	for i := len(cur) - 1; i >= 0 && len(cur) >= 2 && replays < maxReplays; i-- {
		cand := make([]randtest.Op, 0, len(cur)-1)
		cand = append(cand, cur[:i]...)
		cand = append(cand, cur[i+1:]...)
		if seeded(cand) {
			cur, curFailures, curSched = cand, lastFailures, lastSched
		}
	}

	// Schedule minimization: smallest k such that the first k recorded
	// decisions, with the rest of the replay drained lowest-id-first,
	// still reproduce. k = full length replays the recorded schedule
	// exactly, so (budget permitting) the loop always terminates with
	// a reproducing prefix.
	minSched := curSched
	if curSched != nil {
		for k := 0; k <= curSched.Len() && replays < maxReplays; k++ {
			prefix := (&sched.Schedule{Steps: curSched.Steps[:k]}).Clone()
			if attempt(cur, sched.WithReplay(prefix)) {
				minSched, curFailures = prefix, lastFailures
				break
			}
		}
	}

	return &randtest.Trace{Ops: cur}, minSched, curFailures, replays, true
}
