package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"ghostspec/internal/campaign"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/telemetry/trace"
)

// The profile mode answers the attribution question: where does one
// execution's wall time actually go? It runs a single-worker traced
// campaign with rings sized to retain every span, folds the span dump
// into a per-phase breakdown, and enforces two regression gates with a
// non-zero exit:
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
//     tracer-free baseline — the "compile-out cheap" requirement.
//     That the disabled Begin/End pair does not allocate is
//     TestTraceDisabledPathAllocationFree's to check.

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
// The ns/call figures are medians over the repetitions; OverheadPct is
// the median of each repetition's paired gated/baseline ratio, less
// one, and is what the gate reads.
type profileOverhead struct {
	BaselineNsPerCall float64 `json:"baseline_ns_per_call"`
	GatedNsPerCall    float64 `json:"gated_ns_per_call"`
	OverheadPct       float64 `json:"overhead_pct"`
	LimitPct          float64 `json:"limit_pct"`
	EpsilonNs         float64 `json:"epsilon_ns"`
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

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fold fills the report's phase breakdown, attribution, trap coverage
// and dropped-span count from a traced campaign's tracer.
func (rep *profileReport) fold(tr *trace.Tracer) {
	totals := map[string]trace.NameAgg{}
	var trapNames, oracleNames []string
	for _, a := range tr.Aggregate() {
		totals[a.Name] = a
		if strings.HasPrefix(a.Name, "hyp.trap:") {
			trapNames = append(trapNames, a.Name)
		}
		if oracleSpan(a.Name) {
			oracleNames = append(oracleNames, a.Name)
		}
	}
	sum := func(label string, names ...string) profilePhase {
		out := profilePhase{Phase: label}
		for _, n := range names {
			out.Count += totals[n].Count
			out.TotalMS += ms(totals[n].Total)
		}
		return out
	}
	// Worker-system boots are root spans (they happen once per worker,
	// outside any exec); they belong in the attribution base as well as
	// the boot phase, or the ratio overflows 100% — the numerator would
	// include time the denominator never saw.
	spans := tr.Spans()
	for _, s := range spans {
		if s.Parent < 0 && s.NameString() == "exec.boot" {
			rep.RootBootMS += ms(s.Dur)
		}
	}
	rep.ExecWallMS = sum("exec", "exec").TotalMS
	// The attribution base: per-exec wall time plus the once-per-worker
	// root boots. Every phase in the numerator is a slice of this base,
	// so the ratio is bounded by 100% by construction.
	base := rep.ExecWallMS + rep.RootBootMS
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
	}
	if base > 0 {
		for _, ps := range [][]profilePhase{rep.Phases, rep.Nested} {
			for i := range ps {
				ps[i].PctOfExec = 100 * ps[i].TotalMS / base
			}
		}
		rep.AttributedPct = 100 * attributed / base
	}
	rep.AttributionFloorPct = attributionFloorPct
	rep.TrapCoveredPct = trapCoverage(spans)
	rep.TrapCoverageFloorPct = trapCoverageFloorPct
	rep.DroppedSpans = tr.Dropped()
}

// violations lists every gate the report fails.
func (rep *profileReport) violations() []string {
	var out []string
	if rep.AttributedPct < attributionFloorPct {
		out = append(out, fmt.Sprintf(
			"attribution %.1f%% below floor %.0f%%", rep.AttributedPct, attributionFloorPct))
	}
	if rep.AttributedPct > 100 {
		// Physically impossible: disjoint slices of the base exceeding
		// it means a phase is double-counted or counted against a base
		// that never saw it (the root-boot bug this check pins down).
		out = append(out, fmt.Sprintf(
			"attribution %.2f%% exceeds 100%% (phase accounting double-counts)", rep.AttributedPct))
	}
	if rep.TrapCoveredPct < trapCoverageFloorPct {
		out = append(out, fmt.Sprintf(
			"trap coverage %.1f%% below floor %.0f%%", rep.TrapCoveredPct, trapCoverageFloorPct))
	}
	if rep.DroppedSpans > 0 {
		out = append(out, fmt.Sprintf(
			"%d spans dropped at the rings (attribution is partial; grow profileRingSize)", rep.DroppedSpans))
	}
	// gated <= baseline*(1+limit) + epsilon, as a percentage of the
	// baseline.
	o := rep.Overhead
	if o.BaselineNsPerCall > 0 && o.OverheadPct > overheadLimitPct+100*overheadEpsilonNs/o.BaselineNsPerCall {
		out = append(out, fmt.Sprintf(
			"gated hypercall median overhead %+.1f%% exceeds %.0f%% + %.0fns of the %.0fns/call baseline",
			o.OverheadPct, overheadLimitPct, overheadEpsilonNs, o.BaselineNsPerCall))
	}
	return out
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
	rep.fold(tr)

	fmt.Printf("campaign: %d execs, %d spans retained, %d dropped\n",
		crep.Execs, len(tr.Spans()), rep.DroppedSpans)
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
	fmt.Printf("gated hypercall: %.0fns/call vs %.0fns/call baseline (median paired overhead %+.2f%%, limit %.0f%% + %.0fns)\n",
		rep.Overhead.GatedNsPerCall, rep.Overhead.BaselineNsPerCall, rep.Overhead.OverheadPct,
		overheadLimitPct, overheadEpsilonNs)

	// --- verdict + artifacts ------------------------------------------
	violations := rep.violations()
	rep.Pass = len(violations) == 0

	if err := writeJSON(path, rep); err != nil {
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
// tracing disabled (gated). Each repetition times one leg of each,
// alternating which runs first, and gives one gated/baseline ratio;
// the median ratio is kept. A scheduling hiccup or a shift of a
// shared machine's speed moves one repetition's pair, not the median;
// a statistic taken per leg would compare runs from different moments.
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
	var bases, gateds, ratios []float64
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
		bases = append(bases, float64(base))
		gateds = append(gateds, float64(gated))
		ratios = append(ratios, float64(gated)/float64(base))
	}
	const callsPerIter = 2 // share + unshare
	o.BaselineNsPerCall = median(bases) / (iters * callsPerIter)
	o.GatedNsPerCall = median(gateds) / (iters * callsPerIter)
	o.OverheadPct = 100 * (median(ratios) - 1)
	o.LimitPct = overheadLimitPct
	o.EpsilonNs = overheadEpsilonNs
	return nil
}

// median returns the middle value of xs (odd length), sorting it.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}
