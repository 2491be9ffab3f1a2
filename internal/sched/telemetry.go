package sched

import (
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// Process-global scheduling telemetry, alongside the per-Scheduler
// deterministic count (Scheduler.Preemptions): how often vCPUs parked,
// across all concurrent schedulers. Each park is one sched.preempt
// span, except a lock block that LockContended undoes because it
// completed a deadlock: that one is counted but never parks.
var telPreemptions = telemetry.NewCounter("sched_preemptions")

// spanPreempt covers one parked interval on the scheduler's trace
// lane (WithTracer); how long vCPUs spent parked is read from these
// spans.
var spanPreempt = trace.NewName("sched.preempt")
