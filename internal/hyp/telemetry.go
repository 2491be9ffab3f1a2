package hyp

import (
	"time"

	"ghostspec/internal/arch"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// The hypervisor's telemetry instruments. All are registered once at
// package init (registration is the only allocating step); the hot
// path performs atomic adds only, behind the global telemetry.Disabled
// gate.

// nrHCs is one past the largest hypercall ID, for the per-call span
// names.
const nrHCs = int(HCHostShareHypRange) + 1

var (
	// trapLatency is the end-to-end handler latency per exit reason
	// (hypercall entry to exit, excluding the ghost hooks' own oracle
	// check, which ghost reports separately).
	trapLatHVC   = telemetry.NewHistogram(`hyp_trap_latency_ns{reason="hvc"}`)
	trapLatAbort = telemetry.NewHistogram(`hyp_trap_latency_ns{reason="mem-abort"}`)
	trapLatIRQ   = telemetry.NewHistogram(`hyp_trap_latency_ns{reason="irq"}`)

	trapsTotal = telemetry.NewCounter("hyp_traps_total")
)

// Per-dispatch trap span names: one per hypercall (so the span
// aggregate attributes cost per call, not just per trap) plus the two
// non-HVC exit reasons. Filled in init.
var (
	spanTrapHVC     [nrHCs]trace.Name
	spanTrapUnknown trace.Name
	spanTrapAbort   = trace.NewName("hyp.trap:host_mem_abort")
	spanTrapIRQ     = trace.NewName("hyp.trap:irq")
)

func init() {
	for id := HC(1); int(id) < nrHCs; id++ {
		spanTrapHVC[id] = trace.NewName("hyp.trap:" + id.String())
	}
	spanTrapUnknown = trace.NewName("hyp.trap:" + HC(0).String())
}

// trapSpanName picks the span name for one trap: the per-hypercall
// name for HVC exits (read from x0 before the handler overwrites the
// registers), the exit-reason name otherwise.
func (hv *Hypervisor) trapSpanName(cpu int, reason arch.ExitReason) trace.Name {
	switch reason {
	case arch.ExitHVC:
		if id := HC(hv.CPUs[cpu].HostRegs[0]); id >= 1 && int(id) < nrHCs {
			return spanTrapHVC[id]
		}
		return spanTrapUnknown
	case arch.ExitMemAbort:
		return spanTrapAbort
	}
	return spanTrapIRQ
}

// hcRetString renders a hypercall return value symbolically: errno
// names on failure, run-exit names for vcpu_run, "handle" for a
// successful init_vm, "OK" otherwise. Every branch returns a constant
// string, so flight recording stays allocation-free.
func hcRetString(id HC, ret int64) string {
	if ret < 0 {
		return Errno(ret).String()
	}
	switch id {
	case HCVCPURun:
		return RunExitString(ret)
	case HCInitVM:
		if ret >= int64(HandleOffset) {
			return "handle"
		}
	}
	return "OK"
}

// trapTelemetry is the per-trap telemetry capture: filled at trap
// entry, finished (metrics + flight record) at exit. Kept in a local
// on HandleTrap's stack — no allocation per trap.
type trapTelemetry struct {
	on    bool
	start time.Time
	hc    HC
	ev    telemetry.TrapEvent
}

// begin captures the entry-side state: the clock, and the hypercall
// ID/arguments before the handler overwrites the return registers.
func (t *trapTelemetry) begin(hv *Hypervisor, cpu int, reason arch.ExitReason) {
	t.on = !telemetry.Disabled()
	if !t.on {
		return
	}
	t.start = time.Now()
	regs := &hv.CPUs[cpu].HostRegs
	t.ev = telemetry.TrapEvent{Kind: reason.String()}
	switch reason {
	case arch.ExitHVC:
		t.hc = HC(regs[0])
		t.ev.Name = t.hc.String()
		t.ev.Args = [4]uint64{regs[1], regs[2], regs[3], regs[4]}
	case arch.ExitMemAbort:
		fault := hv.CPUs[cpu].Fault
		t.ev.Name = "host_mem_abort"
		t.ev.Args[0] = uint64(fault.Addr)
		if fault.Write {
			t.ev.Args[1] = 1
		}
	case arch.ExitIRQ:
		t.ev.Name = "irq"
	}
}

// finish observes the latency, counts the trap, and records it into
// the flight recorder. panicked marks a trap that died in a hypervisor
// panic (its return registers were never written).
func (t *trapTelemetry) finish(hv *Hypervisor, cpu int, reason arch.ExitReason, panicked bool) {
	if !t.on {
		return
	}
	t.ev.Dur = time.Since(t.start)
	trapsTotal.Inc()
	switch reason {
	case arch.ExitHVC:
		trapLatHVC.ObserveDuration(t.ev.Dur)
		if panicked {
			t.ev.RetStr = "hyp-panic"
		} else {
			ret := int64(hv.CPUs[cpu].HostRegs[1])
			t.ev.Ret = ret
			t.ev.RetStr = hcRetString(t.hc, ret)
		}
	case arch.ExitMemAbort:
		trapLatAbort.ObserveDuration(t.ev.Dur)
		if panicked {
			t.ev.RetStr = "hyp-panic"
		} else if hv.percpu[cpu].LastAbortInjected {
			t.ev.RetStr = "reflected"
		} else {
			t.ev.RetStr = "mapped"
		}
	case arch.ExitIRQ:
		trapLatIRQ.ObserveDuration(t.ev.Dur)
		t.ev.RetStr = "OK"
	}
	hv.flight.Record(cpu, t.ev)
}

// FlightRecorder exposes the per-CPU trap history; the ghost recorder
// attaches a dump of it to every oracle failure report.
func (hv *Hypervisor) FlightRecorder() *telemetry.FlightRecorder { return hv.flight }
