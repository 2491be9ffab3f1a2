package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ghostspec/internal/campaign"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/telemetry/trace"
)

// campaignWorkload is one serial model-guided campaign shape, run as
// repeated fixed-exec units: each unit is a fresh campaign.Start/Wait
// over unitExecs executions with one worker. Every execution runs the
// campaign's default generator length, stepsPerExec.
type campaignWorkload struct {
	nrCPUs    int
	schedFuzz bool
	unitExecs int64
}

// stepsPerExec is the campaign's default generator length of one
// execution, the one ghost-fuzz runs.
const stepsPerExec = 400

// ringDepth sizes the span ring of a traced unit so it holds the whole
// unit; a dropped span fails the traced run.
const ringDepth = 1 << 18

func (w campaignWorkload) config(o options, seed int64) campaign.Config {
	return campaign.Config{
		Workers:     1,
		Seed:        seed,
		NrCPUs:      w.nrCPUs,
		SchedFuzz:   w.schedFuzz,
		StepsPerRun: int(o.scale(stepsPerExec)),
		Bugs:        o.bugs,
		MaxExecs:    o.scale(w.unitExecs),
		// The engine restarts every unit, so the default cadence (one
		// conformance check per 256 executions) would never fire; one
		// check per unit keeps the divergence gate live.
		ConformanceEvery: int(o.scale(w.unitExecs)),
		// A finding fails the unit; stop at the first so a faulty build
		// spends one minimization, not one per alarm.
		MaxFindings: 1,
	}
}

// unit is the measurement of one fixed-exec campaign unit.
type unit struct {
	execs     int64
	cpu, wall time.Duration
	cnt       counters
	rt        rtSample
	rep       *campaign.Report
	heapMB    float64
}

// runUnit runs one campaign unit from a collected heap, timing the
// engine from Start's return to Wait's, and takes the live heap after a
// forced collection while the engine is still referenced. Spans are
// recorded into the tracer only when record is set.
func runUnit(cfg campaign.Config, tracer *trace.Tracer, record bool) (unit, error) {
	runtime.GC()
	c0, r0 := readCounters(), readRuntime()
	cfg.Tracer = tracer
	trace.SetEnabled(record)
	e, err := campaign.Start(cfg)
	if err != nil {
		trace.SetEnabled(false)
		return unit{}, err
	}
	cpu0, wall0 := cpuTime(), time.Now()
	rep, err := e.Wait()
	cpu, wall := cpuTime()-cpu0, time.Since(wall0)
	trace.SetEnabled(false)
	c1, r1 := readCounters(), readRuntime()
	u := unit{
		cpu: cpu, wall: wall, rep: rep,
		cnt: c1.sub(c0),
		rt:  rtSample{allocBytes: r1.allocBytes - r0.allocBytes, gcCPU: r1.gcCPU - r0.gcCPU},
	}
	u.heapMB = liveHeapMB()
	runtime.KeepAlive(e)
	if err != nil {
		return u, err
	}
	u.execs = rep.Execs
	return u, nil
}

// measureStarts times n campaign.Start calls, each stopped and waited
// before the next; the median is the set-up cost.
func measureStarts(w campaignWorkload, o options, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cfg := w.config(o, deriveSeed(o.seed, 1<<20+i))
		// Each set-up starts from a collected heap; otherwise whether a
		// collection lands inside it decides its time.
		runtime.GC()
		t0 := time.Now()
		e, err := campaign.Start(cfg)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		e.Stop()
		if _, err := e.Wait(); err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// generate records one generator run of the workload's shape on a fresh
// unchecked system: a trace for the oracle on/off replays, which check
// it.
func generate(w campaignWorkload, o options, seed int64) (*randtest.Trace, error) {
	hv, err := hyp.New(hyp.Config{NrCPUs: w.nrCPUs, Inj: faults.NewInjector(o.bugs...)})
	if err != nil {
		return nil, err
	}
	t := randtest.New(proxy.New(hv), nil, seed, true)
	t.Trace = &randtest.Trace{}
	t.Run(int(o.scale(stepsPerExec)))
	return t.Trace, nil
}

// replay re-executes a trace on a freshly booted system, with or
// without the oracle attached, and returns the CPU and wall time of the
// replay alone (boot and attach excluded).
func replay(w campaignWorkload, o options, tr *randtest.Trace, oracle bool) (cpu, wall time.Duration, err error) {
	hv, err := hyp.New(hyp.Config{NrCPUs: w.nrCPUs, Inj: faults.NewInjector(o.bugs...)})
	if err != nil {
		return 0, 0, err
	}
	var rec *ghost.Recorder
	if oracle {
		rec = ghost.Attach(hv)
	}
	d := proxy.New(hv)
	runtime.GC()
	cpu0, wall0 := cpuTime(), time.Now()
	randtest.Replay(d, tr)
	cpu, wall = cpuTime()-cpu0, time.Since(wall0)
	if rec != nil {
		if n := len(rec.Failures()); n > 0 {
			return cpu, wall, fmt.Errorf("oracle replay: %d alarms", n)
		}
	}
	return cpu, wall, nil
}

// replayPairs is how many oracle on/off replay pairs follow each unit.
// The ratio varies with each trace's mix of operations, so a run
// averages over many traces.
const replayPairs = 3

// replayPair generates one trace and replays it once with the oracle
// and once without, in the given order. It returns both replays' CPU
// seconds and the checked replay's wall milliseconds.
func replayPair(w campaignWorkload, o options, seed int64, onFirst bool) (on, off, onWallMS float64, err error) {
	tr, err := generate(w, o, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, oracle := range []bool{onFirst, !onFirst} {
		cpu, wall, err := replay(w, o, tr, oracle)
		if err != nil {
			return 0, 0, 0, err
		}
		if oracle {
			on, onWallMS = cpu.Seconds(), float64(wall)/float64(time.Millisecond)
		} else {
			off = cpu.Seconds()
		}
	}
	return on, off, onWallMS, nil
}

// seedIndex is the campaign seed unit u runs. Every fourth unit repeats
// the seed of the unit three before it, so the determinism gate always
// has a first run to compare against; the rest take fresh seeds, so one
// run averages over many inputs.
func seedIndex(u int) int {
	if u%4 == 3 {
		return seedIndex(u - 3)
	}
	return u - u/4
}

// fixedSeeds is how many seeds coverage_points and hyp.traps_per_exec
// are averaged over: the first ones of every run, so the values depend
// on the benchmark seed alone, not on how many units the time allowed.
const fixedSeeds = 4

func runCampaign(w campaignWorkload, o options) (*outcome, error) {
	out := newOutcome()

	type first struct {
		traps    uint64
		coverage int
	}
	seen := map[int]first{}
	var (
		starts                []float64
		wallRates, heaps      []float64
		onCPU, offCPU, onWall []float64
		allocs, gcFracs       []float64
		cnt                   counters
		execs, tracedExecs    int64
		cpu, tracedCPU        time.Duration
		restores, parentHits  int64
		fallbacks, dirty      int64
		stats                 = newSpanStats()
		dropped               uint64
	)
	// A traced run alternates untraced and traced units over the same
	// seeds, so the tracing overhead compares equal work. Both legs carry
	// an empty ring of the same size, so the collector sees the same heap
	// and only the recording differs.
	var ring *trace.Tracer
	minUnits := fixedSeeds + 1
	if o.trace {
		ring = trace.NewTracer(1, ringDepth)
		minUnits *= 2
	}
	deadline := time.Now().Add(o.duration())
	for u := 0; u < minUnits || time.Now().Before(deadline); u++ {
		si, recorded := seedIndex(u), false
		if o.trace {
			si, recorded = seedIndex(u/2), u%2 == 1
		}
		tracer := ring
		// Set-ups are timed a few at a time between units, so the median
		// spans the whole run rather than one moment of it.
		s, err := measureStarts(w, o, o.setups())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		starts = append(starts, s...)
		un, err := runUnit(w.config(o, deriveSeed(o.seed, si)), tracer, recorded)
		out.attempted++
		if recorded {
			ring = trace.NewTracer(1, ringDepth)
		}
		if err != nil {
			out.fail("unit %d: %v", u, err)
			continue
		}
		rep := un.rep
		ok := true
		check := func(cond bool, format string, args ...any) {
			if !cond {
				ok = false
				out.note("unit %d: "+format, append([]any{u}, args...)...)
			}
		}
		check(len(rep.Findings) == 0, "%d findings", len(rep.Findings))
		check(un.execs == o.scale(w.unitExecs), "%d execs, want %d", un.execs, o.scale(w.unitExecs))
		check(un.cnt.checks == un.cnt.traps,
			"%d oracle checks for %d traps", un.cnt.checks, un.cnt.traps)
		if f, again := seen[si]; again {
			check(f.traps == un.cnt.traps && f.coverage == rep.Coverage.ImplCovered,
				"seed %d repeated with %d traps and %d coverage points, first run had %d and %d",
				si, un.cnt.traps, rep.Coverage.ImplCovered, f.traps, f.coverage)
		} else {
			seen[si] = first{un.cnt.traps, rep.Coverage.ImplCovered}
		}

		// Oracle on/off replay pairs of generator traces drawn from the
		// unit's seed.
		for p := 0; p < replayPairs; p++ {
			on, off, wall, err := replayPair(w, o, deriveSeed(deriveSeed(o.seed, si), p), (u+p)%2 == 0)
			if err != nil {
				check(false, "%v", err)
				break
			}
			onCPU = append(onCPU, on)
			offCPU = append(offCPU, off)
			onWall = append(onWall, wall)
		}
		if !ok {
			out.failed++
			continue
		}

		fmt.Fprintf(os.Stderr, "perfbench: unit %d seed %d traced=%v: %d execs in %.3fs CPU, %.3fs wall\n",
			u, si, recorded, un.execs, un.cpu.Seconds(), un.wall.Seconds())
		if recorded {
			tracedCPU += un.cpu
			stats.add(tracer.Spans())
			dropped += tracer.Dropped()
			tracedExecs += un.execs
			continue
		}
		wallRates = append(wallRates, float64(un.execs)/un.wall.Seconds())
		heaps = append(heaps, un.heapMB)
		allocs = append(allocs, un.rt.allocBytes/1e6/float64(un.execs))
		gcFracs = append(gcFracs, un.rt.gcCPU/un.cpu.Seconds())
		cnt.add(un.cnt)
		execs += un.execs
		cpu += un.cpu
		restores += rep.SnapshotRestores
		parentHits += rep.SnapshotParentHits
		fallbacks += rep.SnapshotFallbacks
		dirty += rep.SnapshotDirtyFrames
	}

	// Coverage and traps are per-seed constants (the gate above holds
	// them to it); report their mean over the run's first seeds.
	var cov, trapsPer []float64
	for si := 0; si < fixedSeeds; si++ {
		if f, ok := seen[si]; ok {
			cov = append(cov, float64(f.coverage))
			trapsPer = append(trapsPer, float64(f.traps)/float64(o.scale(w.unitExecs)))
		}
	}

	m := out.metrics
	// Execution cost differs several-fold between seeds, and the unit
	// rates cluster in more than one mode, where a median jumps between
	// modes; the ratio of sums averages over every execution.
	rate := ratio(float64(execs), cpu.Seconds())
	m["execs_per_cpu_s"] = rate
	m["coverage_points"] = mean(cov)
	m["checked_frac"] = ratio(float64(cnt.checks), float64(cnt.traps))
	m["setup_s"] = median(starts)
	m["heap_live_mb"] = median(heaps)
	m["suite_ms"] = 1000 * median(onCPU)
	m["oracle_overhead_x"] = ratio(median(onCPU), median(offCPU))

	m["hyp.traps_per_exec"] = mean(trapsPer)
	m["hyp.trap_self_us"] = ratio(float64(stats.self["hyp.trap"]), float64(stats.count["hyp.trap"])*1e3)
	m["ghost.oracle_frac"] = 1 - ratio(median(offCPU), median(onCPU))
	m["ghost.cache_hit_frac"] = ratio(float64(cnt.cacheHits), float64(cnt.cacheHits+cnt.cacheMisses+cnt.cachePartial))
	m["ghost.check_us"] = stats.perCount("ghost.check", time.Microsecond)
	m["runtime.alloc_mb_per_exec"] = median(allocs)
	m["runtime.gc_cpu_frac"] = median(gcFracs)
	m["snapshot.restore_ms_per_exec"] = ratio(float64(stats.total["exec.restore"])/1e6, float64(tracedExecs))
	m["snapshot.fork_hit_frac"] = ratio(float64(parentHits), float64(parentHits+fallbacks))
	m["snapshot.dirty_frames_per_restore"] = ratio(float64(dirty), float64(restores))
	m["randtest.gen_ms_per_exec"] = ratio(float64(stats.self["exec.run"]+stats.self["randtest.run"])/1e6, float64(tracedExecs))
	m["campaign.exec_ms_p50"] = quantile(stats.execMS, 0.5)
	m["campaign.exec_ms_p90"] = quantile(stats.execMS, 0.9)
	m["campaign.wall_execs_per_s"] = median(wallRates)
	m["sched.preemptions_per_exec"] = ratio(float64(cnt.preemptions), float64(execs))
	m["sched.parked_us_per_preemption"] = ratio(float64(stats.wait["sched.preempt"])/1e3, float64(stats.waits["sched.preempt"]))
	m["sched.replay_ms_per_exec"] = ratio(float64(stats.total["exec.sched"])/1e6, float64(tracedExecs))
	m["spinlock.wait_ms_per_exec"] = ratio(float64(cnt.lockWaitNS)/1e6, float64(execs))
	m["pgtable.mutate_us"] = stats.perCount("pgtable.mutate", time.Microsecond)
	m["pgtable.mutates_per_exec"] = ratio(float64(stats.count["pgtable.mutate"]), float64(tracedExecs))
	m["arch.tlb_hit_frac"] = ratio(float64(cnt.tlbHits), float64(cnt.tlbHits+cnt.tlbMisses))
	m["arch.tlb_invalidate_ms_per_exec"] = ratio(float64(stats.total["tlb.invalidate"])/1e6, float64(tracedExecs))
	m["suite.test_ms_p50"] = quantile(onWall, 0.5)
	m["suite.test_ms_p90"] = quantile(onWall, 0.9)
	m["trace.overhead_frac"] = 1 - ratio(ratio(float64(tracedExecs), tracedCPU.Seconds()), rate)
	m["trace.dropped_spans"] = float64(dropped)

	if o.trace {
		if err := bootProbe(hyp.Config{NrCPUs: w.nrCPUs}, o, m); err != nil {
			return nil, err
		}
		out.traceGates(stats, dropped)
		stats.print(os.Stderr)
	}
	return out, nil
}
