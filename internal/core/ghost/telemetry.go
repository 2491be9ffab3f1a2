package ghost

import (
	"ghostspec/internal/hyp"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// Span names for the oracle's own cost, all nested in the trap span:
// the trap-entry recording of the pre-state locals; the trap-exit
// check (the §6 overhead headline); at every lock acquire and release,
// the component's recording, with the non-interference compare nested
// in it at acquires; at every release, the separation and
// TLB-coherence checks; and the differential cache verification,
// which dominates when VerifyCache is on.
var (
	spanGhostCheck  = trace.NewName("ghost.check")
	spanGhostVerify = trace.NewName("ghost.verify")
	spanGhostRecord = [...]trace.Name{
		hyp.CompHost:    trace.NewName("ghost.record:host"),
		hyp.CompHyp:     trace.NewName("ghost.record:pkvm"),
		hyp.CompVMTable: trace.NewName("ghost.record:vms"),
		hyp.CompGuest:   trace.NewName("ghost.record:guest"),
	}
	spanGhostSeparation      = trace.NewName("ghost.separation")
	spanGhostTLB             = trace.NewName("ghost.tlb-coherence")
	spanGhostNonInterference = trace.NewName("ghost.noninterference")
	spanGhostEntry           = trace.NewName("ghost.entry")
)

// The oracle's own telemetry: how often it checks, how often it fires,
// and how much latency the checking itself adds to each trap.
var (
	ghostChecks       = telemetry.NewCounter("ghost_checks_total")
	ghostChecksPassed = telemetry.NewCounter("ghost_checks_passed_total")
	ghostCheckLat     = telemetry.NewHistogram("ghost_check_latency_ns")

	// Abstraction-cache traffic: hits returned the stored abstraction
	// untouched, misses re-walked the whole tree (cold cache or root
	// change), partial walks re-interpreted only changed descriptors.
	// The pages counter totals table pages actually re-read — the
	// denominator for how much work the cache avoided.
	ghostCacheHits    = telemetry.NewCounter("ghost_cache_hits_total")
	ghostCacheMisses  = telemetry.NewCounter("ghost_cache_misses_total")
	ghostCachePartial = telemetry.NewCounter("ghost_cache_partial_walks_total")
	ghostCachePages   = telemetry.NewCounter("ghost_cache_pages_reinterpreted_total")

	// ghostFailures counts alarms per FailureKind; one counter per kind,
	// registered up front so the hot path never builds names.
	ghostFailures [int(FailStaleTLB) + 1]*telemetry.Counter

	// Offline replay keeps its own counters so a live run and its
	// replay can be compared side by side.
	replayChecks   = telemetry.NewCounter("ghost_replay_checks_total")
	replayFailures = telemetry.NewCounter("ghost_replay_failures_total")
	replayCheckLat = telemetry.NewHistogram("ghost_replay_check_latency_ns")
)

func init() {
	for k := range ghostFailures {
		ghostFailures[k] = telemetry.NewCounter(
			`ghost_failures_total{kind="` + FailureKind(k).String() + `"}`)
	}
}

// failureCounter returns the per-kind alarm counter, tolerating
// out-of-range kinds.
func failureCounter(k FailureKind) *telemetry.Counter {
	if int(k) < len(ghostFailures) {
		return ghostFailures[k]
	}
	//ghostlint:ignore telemetrycheck unreachable unless a new FailureKind misses the init loop; registration here is a cold fallback
	return telemetry.NewCounter(`ghost_failures_total{kind="` + k.String() + `"}`)
}
