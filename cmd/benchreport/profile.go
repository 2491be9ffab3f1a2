package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"ghostspec/internal/campaign"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/telemetry/trace"
)

// The profile mode answers the attribution question behind ROADMAP
// Open item 1: where does one execution's wall time actually go? It
// runs a single-worker traced campaign with rings sized to retain
// every span, folds the span dump into a per-phase breakdown, and
// enforces two regression gates with a non-zero exit:
//
//   - attribution: the top-level phase spans (boot / restore / replay
//     / run / corpus / shrink) must account for at least
//     attributionFloorPct of the exec spans' wall time — if they
//     don't, someone added an expensive un-instrumented stage and the
//     profile went blind. (Boot spans fire once per worker, when its
//     long-lived snapshot system comes up, rather than once per exec;
//     they count on both sides of the ratio — boot phase and
//     attribution base — so the percentage is bounded by 100, and a
//     >100% check catches one-sided accounting creeping back in.)
//   - trap coverage: the direct child spans of the hyp.trap:* spans
//     (handler layers and oracle stages) must cover at least
//     trapCoverageFloorPct of the trap spans' time — the rest is trap
//     self time no span names, and a drop means a layer went
//     un-instrumented.
//   - overhead: with a tracer attached but tracing disabled, the
//     share/unshare hypercall pair must stay within overheadLimitPct
//     (plus a fixed per-call epsilon for timer noise) of the
//     tracer-free baseline, and the disabled Begin/End pair must not
//     allocate — the "compile-out cheap" requirement, enforced the
//     same way BenchmarkHypercallTelemetryOff enforces it for
//     counters.

const (
	attributionFloorPct = 80.0
	// trapCoverageFloorPct is set a few points under the coverage
	// measured when the gate was added (see docs/PERFORMANCE.md); the
	// target is 90%.
	trapCoverageFloorPct = 65.0
	overheadLimitPct     = 5.0
	// overheadEpsilonNs absorbs clock granularity on a ~μs-scale
	// hypercall: 5% of a short call is smaller than one timer tick.
	overheadEpsilonNs = 10.0

	profileExecs    = 32
	profileSteps    = 200
	profileRingSize = 1 << 18
)

// profilePhase is one named slice of the execution wall time.
type profilePhase struct {
	Phase     string  `json:"phase"`
	Count     uint64  `json:"count"`
	TotalMS   float64 `json:"total_ms"`
	PctOfExec float64 `json:"pct_of_exec"`
}

// profileOverhead is the tracing-disabled hot-path cost comparison.
type profileOverhead struct {
	BaselineNsPerCall float64 `json:"baseline_ns_per_call"`
	GatedNsPerCall    float64 `json:"gated_ns_per_call"`
	OverheadPct       float64 `json:"overhead_pct"`
	LimitPct          float64 `json:"limit_pct"`
	EpsilonNs         float64 `json:"epsilon_ns"`
	AllocsPerPair     float64 `json:"allocs_per_disabled_begin_end"`
}

type profileReport struct {
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Execs       int64  `json:"execs"`
	StepsPerRun int    `json:"steps_per_run"`

	ExecWallMS float64 `json:"exec_wall_ms"`
	// RootBootMS is wall time in once-per-worker system boots, which
	// are root spans outside any exec; percentages are taken against
	// ExecWallMS+RootBootMS so numerator and denominator cover the
	// same spans.
	RootBootMS float64 `json:"root_boot_ms"`
	// Phases are the disjoint direct children of the exec span plus the
	// root boots; their sum is the attributed time.
	Phases []profilePhase `json:"phases"`
	// Nested phases live inside the top-level ones (hypercalls inside
	// run/replay, pgtable/tlb/oracle inside hypercalls) and therefore
	// do not add into the attribution sum.
	Nested []profilePhase `json:"nested"`

	AttributedPct       float64 `json:"attributed_pct"`
	AttributionFloorPct float64 `json:"attribution_floor_pct"`
	DroppedSpans        uint64  `json:"dropped_spans"`

	// TrapCoveredPct is the share of hyp.trap:* span time covered by
	// the traps' direct child spans.
	TrapCoveredPct       float64 `json:"trap_covered_pct"`
	TrapCoverageFloorPct float64 `json:"trap_coverage_floor_pct"`

	Overhead profileOverhead `json:"overhead"`
	Pass     bool            `json:"pass"`
}

// oracleSpan reports whether a span is one of the oracle's outermost
// spans inside a trap: the trap-entry recording, the per-component
// recording at lock acquire and release, the separation and
// TLB-coherence checks at release, and the trap-exit check.
// ghost.verify and ghost.noninterference nest inside the recording
// spans.
func oracleSpan(name string) bool {
	return name == "ghost.entry" || name == "ghost.check" || name == "ghost.separation" ||
		name == "ghost.tlb-coherence" || strings.HasPrefix(name, "ghost.record:")
}

// trapCoverage returns the share, in percent, of the hyp.trap:* spans'
// time that their direct child spans cover. Spans written with
// Tracer.Emit (scheduler parks, lock waits) overlap whatever ran on
// the lane and are not children.
func trapCoverage(spans []trace.Span) float64 {
	var trapTime, covered time.Duration
	for _, s := range spans {
		name := s.NameString()
		switch {
		case strings.HasPrefix(name, "hyp.trap:"):
			trapTime += s.Dur
		case name == "sched.preempt" || strings.HasPrefix(name, "lock.wait:"):
		case strings.HasPrefix(s.ParentString(), "hyp.trap:"):
			covered += s.Dur
		}
	}
	if trapTime == 0 {
		return 0
	}
	return 100 * float64(covered) / float64(trapTime)
}

func runProfile(path, traceOut string) error {
	fmt.Println("==================== execution profile ====================")
	rep := profileReport{
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Execs:       profileExecs,
		StepsPerRun: profileSteps,
	}

	// --- traced campaign leg -----------------------------------------
	tr := trace.NewTracer(1, profileRingSize)
	trace.SetEnabled(true)
	crep, err := campaign.Run(campaign.Config{
		Workers:     1,
		StepsPerRun: profileSteps,
		Seed:        1,
		MaxExecs:    profileExecs,
		Tracer:      tr,
	})
	trace.SetEnabled(false)
	if err != nil {
		return err
	}
	if len(crep.Findings) > 0 {
		// Findings on the fixed build would skew the shrink phase and
		// mean a real regression besides; surface them loudly.
		return fmt.Errorf("profile campaign produced %d findings on the fixed build", len(crep.Findings))
	}
	rep.DroppedSpans = tr.Dropped()

	spans := tr.Spans()
	totals := map[string]*profilePhase{}
	// Worker-system boots are root spans (they happen once per worker,
	// outside any exec); they belong in the attribution base as well as
	// the boot phase, or the ratio overflows 100% — the numerator would
	// include time the denominator never saw.
	var rootBootMS float64
	for _, s := range spans {
		name := s.NameString()
		if name == "exec.boot" && s.Parent < 0 {
			rootBootMS += float64(s.Dur) / float64(time.Millisecond)
		}
		p, ok := totals[name]
		if !ok {
			p = &profilePhase{Phase: name}
			totals[name] = p
		}
		p.Count++
		p.TotalMS += float64(s.Dur) / float64(time.Millisecond)
	}
	sum := func(label string, names ...string) profilePhase {
		out := profilePhase{Phase: label}
		for _, n := range names {
			if p, ok := totals[n]; ok {
				out.Count += p.Count
				out.TotalMS += p.TotalMS
			}
		}
		return out
	}
	var trapNames, oracleNames []string
	for name := range totals {
		if strings.HasPrefix(name, "hyp.trap:") {
			trapNames = append(trapNames, name)
		}
		if oracleSpan(name) {
			oracleNames = append(oracleNames, name)
		}
	}

	exec := sum("exec", "exec")
	rep.ExecWallMS = exec.TotalMS
	rep.RootBootMS = rootBootMS
	// The attribution base: per-exec wall time plus the once-per-worker
	// root boots. Every phase in the numerator is a slice of this base,
	// so the ratio is bounded by 100% by construction.
	base := exec.TotalMS + rootBootMS
	rep.Phases = []profilePhase{
		// boot happens once per worker now (the long-lived snapshot
		// system), not once per exec; restore is its per-exec successor.
		sum("boot", "exec.boot"),
		sum("restore", "exec.restore"),
		sum("replay", "exec.replay"),
		sum("run", "exec.run"),
		sum("corpus", "exec.corpus"),
		sum("shrink", "exec.shrink"),
	}
	rep.Nested = []profilePhase{
		sum("hypercall", trapNames...),
		sum("pgtable", "pgtable.mutate"),
		sum("tlb", "tlb.fill", "tlb.invalidate"),
		sum("oracle", oracleNames...),
		sum("snapshot", "snapshot.capture", "snapshot.cow-fault"),
	}

	var attributed float64
	for i := range rep.Phases {
		attributed += rep.Phases[i].TotalMS
		if base > 0 {
			rep.Phases[i].PctOfExec = 100 * rep.Phases[i].TotalMS / base
		}
	}
	for i := range rep.Nested {
		if base > 0 {
			rep.Nested[i].PctOfExec = 100 * rep.Nested[i].TotalMS / base
		}
	}
	if base > 0 {
		rep.AttributedPct = 100 * attributed / base
	}
	rep.AttributionFloorPct = attributionFloorPct
	rep.TrapCoveredPct = trapCoverage(spans)
	rep.TrapCoverageFloorPct = trapCoverageFloorPct

	fmt.Printf("campaign: %d execs in %v (%.1f execs/s), %d spans retained, %d dropped\n",
		crep.Execs, crep.Elapsed.Round(time.Millisecond), crep.ExecsPerSec, len(spans), rep.DroppedSpans)
	fmt.Printf("exec wall time %.1fms (+%.1fms root boots); phase breakdown:\n",
		rep.ExecWallMS, rep.RootBootMS)
	for _, p := range rep.Phases {
		fmt.Printf("  %-10s %6d spans  %8.1fms  %5.1f%%\n", p.Phase, p.Count, p.TotalMS, p.PctOfExec)
	}
	fmt.Println("  nested within the above:")
	for _, p := range rep.Nested {
		fmt.Printf("  %-10s %6d spans  %8.1fms  %5.1f%%\n", p.Phase, p.Count, p.TotalMS, p.PctOfExec)
	}
	fmt.Printf("attributed: %.1f%% of exec time (floor %.0f%%)\n", rep.AttributedPct, attributionFloorPct)
	fmt.Printf("trap coverage: child spans cover %.1f%% of hyp.trap time (floor %.0f%%)\n",
		rep.TrapCoveredPct, trapCoverageFloorPct)

	// --- tracing-disabled overhead leg -------------------------------
	if err := measureOverhead(&rep.Overhead); err != nil {
		return err
	}
	fmt.Printf("gated hypercall: %.0fns/call vs %.0fns/call baseline (%+.2f%%, limit %.0f%% + %.0fns; %g allocs/pair)\n",
		rep.Overhead.GatedNsPerCall, rep.Overhead.BaselineNsPerCall, rep.Overhead.OverheadPct,
		overheadLimitPct, overheadEpsilonNs, rep.Overhead.AllocsPerPair)

	// --- verdict + artifacts ------------------------------------------
	var violations []string
	if rep.AttributedPct < attributionFloorPct {
		violations = append(violations, fmt.Sprintf(
			"attribution %.1f%% below floor %.0f%%", rep.AttributedPct, attributionFloorPct))
	}
	if rep.AttributedPct > 100 {
		// Physically impossible: disjoint slices of the base exceeding
		// it means a phase is double-counted or counted against a base
		// that never saw it (the root-boot bug this check pins down).
		violations = append(violations, fmt.Sprintf(
			"attribution %.2f%% exceeds 100%% (phase accounting double-counts)", rep.AttributedPct))
	}
	if rep.TrapCoveredPct < trapCoverageFloorPct {
		violations = append(violations, fmt.Sprintf(
			"trap coverage %.1f%% below floor %.0f%%", rep.TrapCoveredPct, trapCoverageFloorPct))
	}
	if rep.DroppedSpans > 0 {
		violations = append(violations, fmt.Sprintf(
			"%d spans dropped at the rings (attribution is partial; grow profileRingSize)", rep.DroppedSpans))
	}
	limit := rep.Overhead.BaselineNsPerCall*(1+overheadLimitPct/100) + overheadEpsilonNs
	if rep.Overhead.GatedNsPerCall > limit {
		violations = append(violations, fmt.Sprintf(
			"gated hypercall %.0fns/call exceeds %.0fns/call (baseline %.0f +%.0f%% +%.0fns)",
			rep.Overhead.GatedNsPerCall, limit, rep.Overhead.BaselineNsPerCall, overheadLimitPct, overheadEpsilonNs))
	}
	if rep.Overhead.AllocsPerPair != 0 {
		violations = append(violations, fmt.Sprintf(
			"disabled Begin/End allocates (%g allocs/pair, want 0)", rep.Overhead.AllocsPerPair))
	}
	rep.Pass = len(violations) == 0

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("profile written to %s\n", path)

	if traceOut != "" {
		tf, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteChrome(tf); err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
		fmt.Printf("span dump written to %s (load in Perfetto or chrome://tracing)\n", traceOut)
	}

	if len(violations) > 0 {
		return fmt.Errorf("profile regression: %s", strings.Join(violations, "; "))
	}
	fmt.Println("PASS")
	return nil
}

// measureOverhead times the share/unshare hypercall pair on a system
// without a tracer (baseline) and on one with a tracer attached but
// tracing disabled (gated). The legs are interleaved with alternating
// order — so clock drift over the measurement window hits both legs'
// minima equally — and the minimum over the repetitions kept, the
// usual defence against one leg eating a scheduling hiccup the other
// didn't.
func measureOverhead(o *profileOverhead) error {
	const (
		reps  = 11
		iters = 2000
	)
	leg := func(cfg hyp.Config) (time.Duration, error) {
		hv, err := hyp.New(cfg)
		if err != nil {
			return 0, err
		}
		d := proxy.New(hv)
		pfn, err := d.AllocPage()
		if err != nil {
			return 0, err
		}
		// Warm the path before timing.
		for i := 0; i < 32; i++ {
			if err := d.ShareHyp(0, pfn); err != nil {
				return 0, err
			}
			if err := d.UnshareHyp(0, pfn); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := d.ShareHyp(0, pfn); err != nil {
				return 0, err
			}
			if err := d.UnshareHyp(0, pfn); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	gatedTracer := trace.NewTracer(1, 1024)
	trace.SetEnabled(false)
	baseMin, gatedMin := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < reps; r++ {
		var base, gated time.Duration
		var err error
		if r%2 == 0 {
			base, err = leg(hyp.Config{})
			if err == nil {
				gated, err = leg(hyp.Config{Tracer: gatedTracer})
			}
		} else {
			gated, err = leg(hyp.Config{Tracer: gatedTracer})
			if err == nil {
				base, err = leg(hyp.Config{})
			}
		}
		if err != nil {
			return err
		}
		baseMin = min(baseMin, base)
		gatedMin = min(gatedMin, gated)
	}
	const callsPerIter = 2 // share + unshare
	o.BaselineNsPerCall = float64(baseMin.Nanoseconds()) / (iters * callsPerIter)
	o.GatedNsPerCall = float64(gatedMin.Nanoseconds()) / (iters * callsPerIter)
	if o.BaselineNsPerCall > 0 {
		o.OverheadPct = 100 * (o.GatedNsPerCall - o.BaselineNsPerCall) / o.BaselineNsPerCall
	}
	o.LimitPct = overheadLimitPct
	o.EpsilonNs = overheadEpsilonNs

	// The disabled Begin/End pair must be allocation-free: one atomic
	// load and a branch, nothing for the garbage collector.
	o.AllocsPerPair = testing.AllocsPerRun(1000, func() {
		sp := gatedTracer.Begin(0, spanAllocProbe)
		sp.End()
	})
	return nil
}

// spanAllocProbe names the span the allocation probe opens and closes;
// registered here because NewName is init/constructor-scope only.
var spanAllocProbe = trace.NewName("profile.alloc-probe")
