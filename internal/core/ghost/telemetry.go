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

// The oracle's own telemetry: how often it checks, and how the
// abstraction cache serves the recordings.
var (
	ghostChecks = telemetry.NewCounter("ghost_checks_total")

	// Abstraction-cache traffic: hits returned the stored abstraction
	// untouched, misses re-walked the whole tree (cold cache or root
	// change), partial walks re-interpreted only changed descriptors.
	ghostCacheHits    = telemetry.NewCounter("ghost_cache_hits_total")
	ghostCacheMisses  = telemetry.NewCounter("ghost_cache_misses_total")
	ghostCachePartial = telemetry.NewCounter("ghost_cache_partial_walks_total")

	// Offline replay keeps its own counters so a live run and its
	// replay can be compared side by side.
	replayChecks   = telemetry.NewCounter("ghost_replay_checks_total")
	replayFailures = telemetry.NewCounter("ghost_replay_failures_total")
	replayCheckLat = telemetry.NewHistogram("ghost_replay_check_latency_ns")
)
