// Command ghost-fuzz runs the parallel coverage-guided campaign
// engine: sharded model-guided random testing with a shared seed
// corpus, oracle-checked on every trap, with delta-debugging trace
// minimization of every finding.
//
//	ghost-fuzz -duration 30s                 # fuzz the fixed build (expect silence)
//	ghost-fuzz -bug unshare-leave-mapping    # fuzz a buggy build, get a minimized repro
//	ghost-fuzz -matrix                       # full faults.All() detection matrix
//	ghost-fuzz -workers 1 -seed 7 -execs 50  # deterministic single-shard run
//	ghost-fuzz -sync-dir out -seed 2         # one worker of a multi-process campaign
//
// Exit status is non-zero when a fuzz run produces findings or a
// matrix run leaves a non-skip-listed bug undetected — on a fixed
// build, findings mean either a regression or an oracle bug, and CI
// wants to hear about both.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"ghostspec/internal/campaign"
	"ghostspec/internal/coverage"
	"ghostspec/internal/faults"
	"ghostspec/internal/spinlock"
	"ghostspec/internal/syncdir"
	"ghostspec/internal/telemetry/trace"
)

func main() {
	workers := flag.Int("workers", 0, "worker shards (default GOMAXPROCS)")
	steps := flag.Int("steps", 400, "generator steps per execution")
	seed := flag.Int64("seed", 1, "campaign seed (worker streams derive from it)")
	guided := flag.Bool("guided", true, "model-guided generation (false: uniform ablation)")
	bugFlag := flag.String("bug", "", "comma-separated bugs to inject")
	bigMem := flag.Bool("big-memory", false, "boot the large-physical-map layout")
	duration := flag.Duration("duration", 0, "wall-time budget (default 10s when no other stop condition)")
	maxExecs := flag.Int64("execs", 0, "execution budget (0: unlimited)")
	maxFindings := flag.Int("max-findings", 0, "stop after this many findings (0: keep going)")
	shrink := flag.Int("shrink", 400, "replay budget per finding minimization")
	matrix := flag.Bool("matrix", false, "fault-sweep mode: campaign per faults.All() bug")
	skipFlag := flag.String("skip", "", "matrix skip-list: bug=reason;bug=reason")
	noSnapshot := flag.Bool("no-snapshot", false, "disable copy-on-write snapshots (fresh boot + full replay per exec)")
	confEvery := flag.Int("conformance-every", 0, "diff every Nth restored exec against a boot-and-replay reference (0: default cadence)")
	cpus := flag.Int("cpus", 4, "vCPUs per fuzzed system")
	schedFuzz := flag.Bool("sched-fuzz", false, "re-execute clean traces under seeded deterministic schedules (multi-vCPU interleaving probe)")
	rankCheck := flag.Bool("rankcheck", false, "enable the runtime lock-rank validator")
	quiet := flag.Bool("quiet", false, "suppress per-finding progress lines")
	httpAddr := flag.String("http", "", "serve live introspection on this address (/metrics, /debug/pprof/, /spans, /campaign)")
	traceOut := flag.String("trace-out", "", "write the campaign's span dump as Chrome trace-event JSON to this file")
	syncDir := flag.String("sync-dir", "", "share corpus, findings and coverage with every worker using this directory; -seed names this worker's stream (restart with the same -seed to resume it)")
	flag.Parse()

	if *rankCheck {
		// Rank inversions panic at the acquisition point; under the
		// campaign that takes the whole process down, which is the
		// desired CI behaviour.
		spinlock.EnableRankCheck()
		defer spinlock.DisableRankCheck()
	}

	bugs, err := parseBugs(*bugFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := campaign.Config{
		Workers:          *workers,
		StepsPerRun:      *steps,
		Seed:             *seed,
		Unguided:         !*guided,
		Bugs:             bugs,
		BigMemory:        *bigMem,
		Duration:         *duration,
		MaxExecs:         *maxExecs,
		MaxFindings:      *maxFindings,
		ShrinkReplays:    *shrink,
		NoSnapshot:       *noSnapshot,
		ConformanceEvery: *confEvery,
		NrCPUs:           *cpus,
		SchedFuzz:        *schedFuzz,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	if *matrix {
		if cfg.Duration <= 0 && cfg.MaxExecs <= 0 {
			cfg.MaxExecs = 400 // per-bug detection budget
		}
		os.Exit(runMatrix(cfg, *skipFlag))
	}

	if cfg.Duration <= 0 && cfg.MaxExecs <= 0 && cfg.MaxFindings <= 0 {
		cfg.Duration = 10 * time.Second
	}
	os.Exit(runFuzz(cfg, *httpAddr, *traceOut, *syncDir))
}

func parseBugs(s string) ([]faults.Bug, error) {
	if s == "" {
		return nil, nil
	}
	known := map[faults.Bug]bool{}
	for _, b := range faults.All() {
		known[b] = true
	}
	var bugs []faults.Bug
	for _, name := range strings.Split(s, ",") {
		b := faults.Bug(strings.TrimSpace(name))
		if !known[b] {
			return nil, fmt.Errorf("unknown bug %q (see faults.All: %v)", b, faults.All())
		}
		bugs = append(bugs, b)
	}
	return bugs, nil
}

func runFuzz(cfg campaign.Config, httpAddr, traceOut, syncDir string) int {
	var sw *syncdir.Worker
	if syncDir != "" {
		stream := cfg.Seed
		var err error
		sw, err = syncdir.Join(syncDir, &cfg, func(f campaign.Finding) string {
			return formatFinding(f, cfg)
		}, func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "sync-dir:", err)
			return 2
		}
		fmt.Printf("ghost-fuzz: sync worker %s/seed-%d, session %d\n",
			syncDir, stream, sw.State().Sessions-1)
	}
	mode := "guided"
	if cfg.Unguided {
		mode = "unguided"
	}
	fmt.Printf("ghost-fuzz: %s campaign, seed=%d steps=%d shrink-budget=%d\n",
		mode, cfg.Seed, cfg.StepsPerRun, cfg.ShrinkReplays)

	// Span tracing is opt-in: only pay for it when someone will read
	// the spans (the /spans endpoint or a trace dump).
	var tr *trace.Tracer
	if httpAddr != "" || traceOut != "" {
		if cfg.Workers <= 0 {
			cfg.Workers = runtime.GOMAXPROCS(0) // the engine's default; one lane each
		}
		tr = trace.NewTracer(cfg.Workers, 1<<14)
		trace.SetEnabled(true)
		cfg.Tracer = tr
	}

	var engPtr atomic.Pointer[campaign.Engine]
	if httpAddr != "" {
		serveIntrospection(httpAddr, engPtr.Load, tr)
		fmt.Printf("ghost-fuzz: introspection on %s (/metrics /debug/pprof/ /spans /campaign)\n", httpAddr)
	}

	eng, err := campaign.Start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 2
	}
	engPtr.Store(eng)
	if sw != nil {
		sw.Attach(eng, time.Second)
	}
	rep, err := eng.Wait()
	if sw != nil {
		if cerr := sw.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 2
	}
	if traceOut != "" {
		if werr := writeChromeTrace(tr, traceOut); werr != nil {
			fmt.Fprintln(os.Stderr, "trace-out:", werr)
			return 2
		}
		fmt.Printf("span dump: %s (load in Perfetto or chrome://tracing; %d spans dropped at the rings)\n",
			traceOut, tr.Dropped())
	}

	fmt.Printf("\n%d execs in %v = %.1f execs/s across %d workers\n",
		rep.Execs, rep.Elapsed.Round(time.Millisecond), rep.ExecsPerSec, len(eng.Status().Workers))
	fmt.Printf("coverage: impl %d/%d (%.1f%%), spec %d/%d (%.1f%%); %d novel runs, corpus %d\n",
		rep.Coverage.ImplCovered, rep.Coverage.ImplTotal,
		coverage.Percent(rep.Coverage.ImplCovered, rep.Coverage.ImplTotal),
		rep.Coverage.SpecCovered, rep.Coverage.SpecTotal,
		coverage.Percent(rep.Coverage.SpecCovered, rep.Coverage.SpecTotal),
		rep.NovelRuns, rep.CorpusSize)
	if sw != nil {
		st := sw.State()
		fmt.Printf("sync: %d corpus files written, %d imported; %d findings reported, %d already in %s/findings\n",
			st.CorpusWritten, st.CorpusImported, st.FindingsReported, st.FindingsDuplicate, syncDir)
	}

	if len(rep.Findings) == 0 {
		fmt.Println("no findings")
		return 0
	}
	for i, f := range rep.Findings {
		fmt.Printf("\n=== finding %d (worker %d, exec %d) ===\n%s", i+1, f.Worker, f.Exec, formatFinding(f, cfg))
	}
	return 1
}

// formatFinding renders a finding's alarms, minimized trace and repro
// recipe — the block printed per finding and stored beside it in a
// sync directory.
func formatFinding(f campaign.Finding, cfg campaign.Config) string {
	var b strings.Builder
	for j, alarm := range f.Failures {
		if j == 3 {
			fmt.Fprintf(&b, "  … %d more alarms\n", len(f.Failures)-j)
			break
		}
		fmt.Fprintf(&b, "  ALARM %v\n", alarm)
	}
	if !f.Reproducible {
		fmt.Fprintf(&b, "  NOT reproducible on replay (%d-op trace kept unminimized)\n", f.Trace.Len())
		return b.String()
	}
	fmt.Fprintf(&b, "  minimized %d ops -> %d ops (%d replays):\n%s",
		f.Trace.Len(), f.Min.Len(), f.ShrinkReplays, indent(f.Min.String()))
	if f.Sched != nil {
		if f.SchedErr != "" {
			fmt.Fprintf(&b, "  scheduler error: %s\n", f.SchedErr)
		}
		fmt.Fprintf(&b, "  schedule (sched-seed %d, %d -> %d steps): %s\n",
			f.SchedSeed, f.Sched.Len(), f.MinSched.Len(), f.MinSched)
	}
	if len(f.Failures) > 0 && len(f.Failures[0].History) > 0 {
		fmt.Fprintf(&b, "  flight recorder (%d trap events on failing CPU; newest is the failure)\n",
			len(f.Failures[0].History))
	}
	switch {
	case f.FromCorpus && f.Sched != nil:
		fmt.Fprintf(&b, "  repro: replay the minimized (trace, schedule) pair on a %d-vCPU boot\n", cfg.NrCPUs)
	case f.FromCorpus:
		fmt.Fprintf(&b, "  repro: replay the minimized trace (run extended a corpus seed)\n")
	case f.Sched != nil:
		fmt.Fprintf(&b, "  repro: ghost-fuzz -workers 1 -seed %d -steps %d -cpus %d -sched-fuzz%s (schedule re-derived from the seed)\n",
			f.Seed, cfg.StepsPerRun, cfg.NrCPUs, bugArgs(cfg.Bugs))
	default:
		fmt.Fprintf(&b, "  repro: ghost-fuzz -workers 1 -seed %d -steps %d%s\n",
			f.Seed, cfg.StepsPerRun, bugArgs(cfg.Bugs))
	}
	return b.String()
}

// writeChromeTrace dumps the tracer's spans as Chrome trace-event
// JSON.
func writeChromeTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bugArgs renders the -bug flag needed to reproduce a buggy-build run.
func bugArgs(bugs []faults.Bug) string {
	if len(bugs) == 0 {
		return ""
	}
	names := make([]string, len(bugs))
	for i, b := range bugs {
		names[i] = string(b)
	}
	return " -bug " + strings.Join(names, ",")
}

func runMatrix(base campaign.Config, skipFlag string) int {
	skip := map[faults.Bug]string{}
	if skipFlag != "" {
		for _, pair := range strings.Split(skipFlag, ";") {
			name, reason, ok := strings.Cut(pair, "=")
			if !ok || reason == "" {
				fmt.Fprintf(os.Stderr, "bad -skip entry %q (want bug=reason)\n", pair)
				return 2
			}
			skip[faults.Bug(strings.TrimSpace(name))] = reason
		}
	}
	fmt.Printf("ghost-fuzz: fault-sweep over %d bugs, budget %d execs each\n",
		len(faults.All()), base.MaxExecs)
	base.MaxFindings = 1
	matrix := campaign.FaultSweep(base, faults.All(), skip)
	fmt.Print(campaign.FormatMatrix(matrix))

	missed := 0
	for _, m := range matrix {
		if !m.Skipped && (!m.Detected || m.Err != nil) {
			missed++
		}
	}
	if missed > 0 {
		fmt.Printf("MISSED %d bugs\n", missed)
		return 1
	}
	fmt.Println("all non-skip-listed bugs detected")
	return 0
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "    " + l
	}
	return strings.Join(lines, "\n") + "\n"
}
