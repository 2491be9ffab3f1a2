package randtest

import (
	"ghostspec/internal/proxy"
	"ghostspec/internal/sched"
	"ghostspec/internal/telemetry/trace"
)

var spanSchedReplay = trace.NewName("randtest.replay-sched")

// SplitByCPU partitions a trace into n per-vCPU streams by the CPU
// each op was recorded against (modulo n, so a trace recorded with
// more CPUs than the scheduler has still lands every op somewhere).
// Each op's CPU is rewritten to its stream index — the stream *is* the
// vCPU issuing it. Relative order within a stream is preserved; order
// *across* streams is exactly what a schedule decides. The ops are
// counted per stream first, so each stream is allocated once, at its
// final length.
func SplitByCPU(tr *Trace, n int) [][]Op {
	counts := make([]int, n)
	for i := range tr.Ops {
		counts[streamOf(&tr.Ops[i], n)]++
	}
	streams := make([][]Op, n)
	for c, k := range counts {
		if k > 0 {
			streams[c] = make([]Op, 0, k)
		}
	}
	for _, op := range tr.Ops {
		c := streamOf(&op, n)
		op.CPU = c
		streams[c] = append(streams[c], op)
	}
	return streams
}

// streamOf is the stream SplitByCPU puts op in.
func streamOf(op *Op, n int) int {
	if c := op.CPU % n; c > 0 {
		return c
	}
	return 0
}

// ReplayScheduled replays a trace with each vCPU's ops on its own
// goroutine under the deterministic scheduler: every op is preceded by
// an op-boundary park, and every instrumented preemption point inside
// an op (lock acquire/release, TLBI, page-table visitor step) is a
// further opportunity for the schedule to interleave another vCPU
// mid-operation. The frame/handle translation env is shared across
// streams — one-token scheduling serialises it (see replayEnv).
//
// The returned error is the scheduler's: replay divergence, schedule
// deadlock, or a captured stream panic. Oracle verdicts, as always,
// live in the recorder attached to d's hypervisor.
func ReplayScheduled(d *proxy.Driver, tr *Trace, s *sched.Scheduler) error {
	trc, lane := d.HV.Tracer()
	sp := trc.Begin(lane, spanSchedReplay)
	defer sp.End()
	streams := SplitByCPU(tr, s.NCPUs())
	env := newReplayEnv()
	fns := make([]func(int), len(streams))
	for i := range streams {
		ops := streams[i]
		fns[i] = func(vcpu int) {
			for _, op := range ops {
				if !s.Boundary(vcpu) {
					return
				}
				env.apply(d, op)
			}
		}
	}
	return s.Run(d.HV.Preempt(), fns...)
}
