// Schedule fuzzing: the campaign's second execution phase. A trace the
// serial phase ran cleanly is split across vCPU streams and re-executed
// under a seeded deterministic schedule (internal/sched), so the same
// generator effort also probes interleavings: preemption points inside
// operations — lock windows, TLBI edges, page-table visitor steps —
// become places another vCPU's hypercall runs mid-operation, and the
// ghost oracle's lock-release checks now fire against genuinely
// interleaved state. A failing scheduled replay yields a Finding whose
// reproduction recipe is the (trace, schedule) pair, both minimized.
package campaign

import (
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
	"ghostspec/internal/telemetry/trace"
)

var spanExecSched = trace.NewName("exec.sched")

// schedSeedStream is the WorkerSeed stream constant that derives a
// run's schedule seed from its generator seed, so a repro needs only
// the one campaign seed chain: seed → trace, (seed, stream) → schedule.
const schedSeedStream = 0x5ced

// SchedSeed returns the schedule seed the campaign derives for a run
// seed — exported so repro tooling (ghost-fuzz -sched-fuzz) re-derives
// the same schedule from the printed numbers.
func SchedSeed(runSeed int64) int64 {
	return randtest.WorkerSeed(runSeed, schedSeedStream)
}

// schedStepsPerOp presizes a schedule-fuzz exec's recorded schedule:
// 2-vCPU replays of 400-step guided traces record 8.6–21.8 steps per
// trace op (seeds 1–12, median ~15), so most records fit and the rest
// grow once.
const schedStepsPerOp = 16

// schedFuzzOne re-executes tr under a seeded deterministic schedule on
// a system rewound to base (or freshly booted when snapshots are off).
// Oracle alarms and scheduler-level errors (captured panics, deadlock
// abandonment) both produce findings.
func (e *Engine) schedFuzzOne(w int, in input, tr *randtest.Trace, ws *worksys, exec int64) {
	sp := e.tracer.Begin(w, spanExecSched)
	defer sp.End()
	schedSeed := SchedSeed(in.seed)

	var (
		d   *proxy.Driver
		rec *ghost.Recorder
	)
	if ws != nil {
		d, rec = ws.d, ws.rec
		e.restoreTo(w, ws, nil)
	} else {
		var err error
		if d, rec, _, err = e.bootSystem(w); err != nil {
			e.fatal(err)
			return
		}
	}

	s := sched.New(e.cfg.NrCPUs, sched.WithSeed(uint64(schedSeed)), sched.WithTracer(e.tracer, w),
		sched.WithCapacity(schedStepsPerOp*tr.Len()))
	runErr := randtest.ReplayScheduled(d, tr, s)
	failures := rec.Failures()
	if len(failures) == 0 && runErr == nil {
		return
	}

	telFindings.Inc()
	min, minSched, minFailures, replays, ok := e.shrinkSchedOne(w, tr, schedSeed, ws)
	f := Finding{
		Worker: w, Exec: exec,
		Seed: in.seed, FromCorpus: in.parent != nil,
		Failures: failures,
		Trace:    tr, Min: min, MinFailures: minFailures,
		ShrinkReplays: replays, Reproducible: ok,
		Sched: s.Record(), MinSched: minSched, SchedSeed: schedSeed,
	}
	if runErr != nil {
		f.SchedErr = runErr.Error()
	}
	e.logf("sched finding: worker=%d exec=%d seed=%d sched-seed=%d cpus=%d alarms=%d trace=%d ops -> min=%d ops, sched=%d -> %d steps (%d replays)",
		w, exec, in.seed, schedSeed, e.cfg.NrCPUs, len(failures), tr.Len(), min.Len(),
		f.Sched.Len(), minSched.Len(), replays)
	e.recordFinding(f)
}

// shrinkSchedOne minimizes a failing (trace, schedule) pair under the
// exec.shrink span.
func (e *Engine) shrinkSchedOne(w int, tr *randtest.Trace, schedSeed int64, ws *worksys) (*randtest.Trace, *sched.Schedule, []ghost.Failure, int, bool) {
	sp := e.tracer.Begin(w, spanExecShrink)
	defer sp.End()
	return ShrinkScheduled(e.factory(w, ws), tr, schedSeed, e.cfg.NrCPUs, e.cfg.ShrinkReplays)
}
