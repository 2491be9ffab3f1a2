package sched

import (
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// Process-global scheduling telemetry, alongside the per-Scheduler
// deterministic count (Scheduler.Preemptions): how often vCPUs parked,
// across all concurrent schedulers.
var telPreemptions = telemetry.NewCounter("sched_preemptions")

// spanPreempt covers one parked interval on the scheduler's trace
// lane (WithTracer); how long vCPUs spent parked is read from these
// spans.
var spanPreempt = trace.NewName("sched.preempt")
