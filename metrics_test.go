package ghostspec

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"ghostspec/internal/hyp"
	"ghostspec/internal/telemetry"

	// The packages of the simulated stack and its campaign tooling, so
	// that each one's package-level registrations run in this binary.
	_ "ghostspec/internal/arch"
	_ "ghostspec/internal/campaign"
	_ "ghostspec/internal/core/ghost"
	_ "ghostspec/internal/coverage"
	_ "ghostspec/internal/litmus"
	_ "ghostspec/internal/mem"
	_ "ghostspec/internal/pgtable"
	_ "ghostspec/internal/proxy"
	_ "ghostspec/internal/randtest"
	_ "ghostspec/internal/sched"
	_ "ghostspec/internal/spinlock"
	_ "ghostspec/internal/suite"
	_ "ghostspec/internal/syncdir"
)

// readMetricFamilies lists every metric family the program registers,
// each with what reads it. A family nothing reads costs an atomic add
// on a hot path and tells nobody anything: register one only together
// with its reader, and name the reader here.
var readMetricFamilies = []string{
	"ghost_cache_hits_total",          // perfbench ghost.cache_hit_frac (stats.go)
	"ghost_cache_misses_total",        // perfbench ghost.cache_hit_frac (stats.go)
	"ghost_cache_partial_walks_total", // perfbench ghost.cache_hit_frac (stats.go)
	"ghost_checks_total",              // perfbench checked_frac and its checks==traps check; TestCountersMatchSpans
	"ghost_replay_check_latency_ns",   // ghost-trace -replay summary
	"ghost_replay_checks_total",       // ghost-trace -replay summary; TestTraceReplayTelemetryCountersMatch
	"ghost_replay_failures_total",     // ghost-trace -replay summary; TestTraceReplayTelemetryCountersMatch
	"hyp_trap_latency_ns",             // pkvm-sim latency summary; BenchmarkShareUnshare*
	"hyp_traps_total",                 // perfbench checked_frac, hyp.traps_per_exec; TestCountersMatchSpans
	"sched_preemptions",               // perfbench sched.preemptions_per_exec; TestCountersMatchSpans
	"spinlock_wait_ns",                // perfbench spinlock.wait_ms_per_exec
	"tlb_hits_total",                  // perfbench arch.tlb_hit_frac
	"tlb_misses_total",                // perfbench arch.tlb_hit_frac; TestCountersMatchSpans
}

// TestRegisteredMetricFamilies pins the registry to the families that
// something reads: the names registered by every linked package, labels
// stripped, must be exactly readMetricFamilies. A boot first runs the
// constructors, which register per-instance names.
func TestRegisteredMetricFamilies(t *testing.T) {
	if _, err := hyp.New(hyp.Config{}); err != nil {
		t.Fatal(err)
	}
	s := telemetry.Snapshot()
	var names []string
	for _, c := range s.Counters {
		names = append(names, c.Name)
	}
	for _, g := range s.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range s.Histograms {
		names = append(names, h.Name)
	}
	var families []string
	for _, n := range names {
		base, _, _ := strings.Cut(n, "{")
		families = append(families, base)
	}
	sort.Strings(families)
	families = slices.Compact(families)
	for _, f := range families {
		if !slices.Contains(readMetricFamilies, f) {
			t.Errorf("metric family %s is registered but not in readMetricFamilies: add its reader or delete it", f)
		}
	}
	for _, f := range readMetricFamilies {
		if !slices.Contains(families, f) {
			t.Errorf("metric family %s is in readMetricFamilies but no linked package registers it", f)
		}
	}
}
