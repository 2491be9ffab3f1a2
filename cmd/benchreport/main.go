// Command benchreport regenerates every quantitative claim of the
// paper's evaluation (§5-6), printing paper-reported vs measured
// values side by side. See DESIGN.md for the experiment index.
//
//	benchreport                        # all experiments
//	benchreport -exp E4                # one experiment
//	benchreport -campaign out.json     # snapshot and sync-directory gates -> JSON artifact
//	benchreport -profile out.json      # traced campaign -> per-exec phase attribution + overhead gates
//
// Timing figures (throughput, the oracle on/off ratios) come from
// perfbench, not from here; see docs/PERFORMANCE.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ghostspec/internal/bugdemo"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/coverage"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/suite"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: E1..E8 or all")
	randSteps := flag.Int("rand-steps", 20000, "random-campaign steps for E3")
	campaignBench := flag.String("campaign", "", "run the campaign engine serially with snapshots on and off and the sync-directory legs, and write results to this JSON file; fails on the snapshot speed-up floor, the sync gates or a conformance divergence")
	profile := flag.String("profile", "", "run a traced campaign, write the per-exec phase-attribution profile to this JSON file, and enforce the attribution/overhead gates")
	profileTrace := flag.String("profile-trace", "", "with -profile: also write the campaign's span dump as Chrome trace-event JSON to this file")
	flag.Parse()

	if *profile != "" {
		if err := runProfile(*profile, *profileTrace); err != nil {
			fmt.Fprintln(os.Stderr, "profile:", err)
			os.Exit(1)
		}
		return
	}

	if *campaignBench != "" {
		if err := runCampaignBench(*campaignBench); err != nil {
			fmt.Fprintln(os.Stderr, "campaign-bench:", err)
			os.Exit(1)
		}
		return
	}

	exps := map[string]func() error{
		"E1": e1Suite, "E2": e2Coverage, "E3": func() error { return e3Random(*randSteps) },
		"E4": e4Synthetic, "E5": e5RealBugs, "E6": e6SpecSize,
		"E7": e7Performance, "E8": e8Invariants,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"}

	failed := false
	for _, name := range order {
		if *exp != "all" && !strings.EqualFold(*exp, name) {
			continue
		}
		fmt.Printf("==================== %s ====================\n", name)
		if err := exps[name](); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

// E1 — handwritten tests (§5): 41 tests, 19 error-free / 22 error,
// a handful concurrent; all pass under the oracle.
func e1Suite() error {
	results := suite.Run(suite.Options{Ghost: true})
	s := suite.Summarise(results)
	fmt.Println("paper:    41 handwritten tests — 19 error-free, 22 error paths, a handful concurrent; all pass")
	fmt.Printf("measured: %d tests — %d error-free, %d error paths, %d concurrent; %d pass, %d fail, %d oracle alarms (%v)\n",
		s.Total, s.OKTests, s.ErrorTests, s.Concurrent, s.Passed, s.Failed, s.AlarmCount, s.TotalDuration.Round(time.Millisecond))
	if s.Failed != 0 || s.AlarmCount != 0 {
		return fmt.Errorf("suite not clean")
	}
	return nil
}

// E2 — coverage (§5): 100% of reachable handler branches from the
// handwritten suite; spec coverage 92% (459/497) with the residue in
// rare error cases.
func e2Coverage() error {
	ghost.ResetSpecCoverage()
	agg, results := suite.CoverageBaseline()
	if s := suite.Summarise(results); s.Failed != 0 {
		return fmt.Errorf("suite failed under coverage")
	}
	r := agg.Report()
	specCov, specTotal, specMissing := ghost.SpecCoverage()
	fmt.Println("paper:    100% line coverage of reachable host_share_hyp call graph; spec 92% (459/497), missing rare error cases")
	fmt.Printf("measured: impl outcome branches %d/%d (%.1f%%)\n",
		r.ImplCovered, r.ImplTotal, coverage.Percent(r.ImplCovered, r.ImplTotal))
	fmt.Printf("measured: spec branch regions %d/%d (%.1f%%), missing: %v\n",
		specCov, specTotal, coverage.Percent(specCov, specTotal), specMissing)
	fmt.Println("detail:")
	fmt.Print(indent(r.String()))
	return nil
}

// E3 — random testing (§5): ~200k hypercalls/hour in QEMU; guided
// generation avoids host crashes and progresses the state machine
// (the unguided ablation shows what the model buys).
func e3Random(steps int) error {
	run := func(guided bool) (randtest.Stats, time.Duration, int) {
		hv, err := hyp.New(hyp.Config{})
		if err != nil {
			panic(err)
		}
		rec := ghost.Attach(hv)
		tr := randtest.New(proxy.New(hv), rec, 1, guided)
		start := time.Now()
		tr.Run(steps)
		return tr.Stats(), time.Since(start), len(rec.Failures())
	}
	gs, gd, galarms := run(true)
	us, ud, _ := run(false)

	rate := float64(gs.Calls) / gd.Seconds()
	fmt.Println("paper:    ~200,000 hypercalls/hour (QEMU, Mac Mini M2); model-guided generation avoids host crashes")
	fmt.Printf("measured: guided   %d calls in %v = %.0f calls/s (%.0fM/hour), %d host crashes, %d VMs created, %d oracle alarms\n",
		gs.Calls, gd.Round(time.Millisecond), rate, rate*3600/1e6, gs.HostCrashes, gs.VMsCreated, galarms)
	fmt.Printf("ablation: unguided %d calls in %v, %d host crashes, %d VMs created, %d/%d calls errored\n",
		us.Calls, ud.Round(time.Millisecond), us.HostCrashes, us.VMsCreated, us.Errnos, us.Calls)
	if gs.HostCrashes != 0 {
		return fmt.Errorf("guided campaign crashed the host")
	}
	if galarms != 0 {
		return fmt.Errorf("clean campaign raised alarms")
	}
	return nil
}

// E4 — synthetic bug testing (§5): injected bugs are detected.
func e4Synthetic() error {
	return runDetection(false)
}

// E5 — the five real pKVM bugs (§6), re-created and detected.
func e5RealBugs() error {
	return runDetection(true)
}

func runDetection(realOnly bool) error {
	if realOnly {
		fmt.Println("paper:    5 real pKVM bugs found (memcache alignment, memcache size, vcpu load race, host fault robustness, linear-map overlap)")
	} else {
		fmt.Println("paper:    synthetic bugs injected into pKVM are all flagged by the oracle")
	}
	missed := 0
	for _, r := range bugdemo.DetectAll() {
		if realOnly != r.Demo.Real {
			continue
		}
		verdict := "DETECTED"
		if !r.Detected {
			verdict = "MISSED"
			missed++
		}
		kind := ""
		if len(r.Alarms) > 0 {
			kind = fmt.Sprintf(" [%v]", r.Alarms[0].Kind)
		}
		fmt.Printf("  %-26s %s%s\n", r.Demo.Bug, verdict, kind)
		if r.DriveErr != nil {
			fmt.Printf("      scenario error: %v\n", r.DriveErr)
			missed++
		}
	}
	if missed > 0 {
		return fmt.Errorf("%d bugs missed", missed)
	}
	fmt.Println("measured: all detected")
	return nil
}

// E6 — specification size (§6): impl ≈11k LoC; spec 2600 (hypercalls)
// + 1300 (abstraction) + 4500 (ADTs) ≈ 14k total.
func e6SpecSize() error {
	counts, err := countLoC(".")
	if err != nil {
		return err
	}
	fmt.Println("paper:    impl ~11,000 LoC; spec ~14,000 (2600 hypercall specs + 1300 abstraction + 4500 ADTs + boilerplate)")
	fmt.Println("measured (this reproduction, non-test Go LoC):")
	total := 0
	for _, c := range counts {
		fmt.Printf("  %-46s %6d\n", c.name, c.lines)
		total += c.lines
	}
	fmt.Printf("  %-46s %6d\n", "total", total)
	return nil
}

// E7 — performance (§6): boot overhead 3.2x (1.49s→4.76s), handwritten
// tests 11.5x (1.07s→12.3s), ghost memory ≈18MB, on 4 cores. The two
// ratios are perfbench's; this prints the commands that give them and
// measures the memory figures.
func e7Performance() error {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		return err
	}
	rec := ghost.Attach(hv)
	randtest.New(proxy.New(hv), rec, 99, true).Run(2000)
	st := rec.Stats()

	fmt.Println("paper:    boot 1.49s→4.76s (3.2x); handwritten tests 1.07s→12.3s (11.5x); ghost memory ~18MB")
	fmt.Println("ratios:   boot  = suite.boot_overhead_x of `bash perfbench/run.sh --workload suite --trace 1`")
	fmt.Println("ratios:   suite = oracle_overhead_x of `bash perfbench/run.sh --workload suite`")
	fmt.Printf("measured: ghost state after 2000 random steps: %d live maplets; %d simulated frames touched (%.1f MB)\n",
		st.MapletsLive, hv.Mem.FrameCount(), float64(hv.Mem.FrameCount())*4096/1e6)
	return nil
}

// E8 — the §4.4 invariants: non-interference outside locks and
// page-table footprint separation, demonstrated by violating each.
func e8Invariants() error {
	fmt.Println("paper:    non-interference on the abstract state outside locks; separation of page-table footprints")

	// Non-interference: corrupt the host table between hypercalls.
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		return err
	}
	rec := ghost.Attach(hv)
	d := proxy.New(hv)
	pfn, _ := d.AllocPage()
	if err := d.ShareHyp(0, pfn); err != nil {
		return err
	}
	corruptHostTable(hv)
	pfn2, _ := d.AllocPage()
	_ = d.ShareHyp(0, pfn2)
	ni := false
	for _, f := range rec.Failures() {
		if f.Kind == ghost.FailNonInterference {
			ni = true
		}
	}
	fmt.Printf("measured: non-interference check fires on out-of-band table change: %v\n", ni)
	if !ni {
		return fmt.Errorf("non-interference violation undetected")
	}
	fmt.Println("measured: separation check active on every lock release (see internal/core/ghost separation tests)")
	return nil
}
