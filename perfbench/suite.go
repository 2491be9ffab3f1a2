package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"ghostspec/internal/core/ghost"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/suite"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// spanTest is the benchmark's own root span around one traced
// handwritten test, the base its self-time shares are taken against.
var spanTest = trace.NewName("suite.test")

// suiteRingDepth holds every span of one traced pass.
const suiteRingDepth = 1 << 17

// trapsTotal is the program's count of hypervisor traps.
var trapsTotal = telemetry.NewCounter("hyp_traps_total")

// pass is the measurement of one run of the whole handwritten suite.
type pass struct {
	cpu, wall time.Duration
	cnt       counters
	rt        rtSample
	results   []suite.Result
	// serialTraps counts the traps of the tests that drive one hardware
	// thread at a time. The concurrent tests race their threads, and how
	// many traps they take depends on the interleaving.
	serialTraps uint64
}

// runPass runs the suite once through suite.Run, every test on a
// freshly booted system, with or without the oracle attached.
func runPass(o options, oracle bool) pass {
	runtime.GC()
	// The trap count at each test's boot, for the traps of each test.
	marks := make([]uint64, 0, len(suite.All())+1)
	mark := func(*suite.Ctx) { marks = append(marks, trapsTotal.Value()) }
	c0, r0 := readCounters(), readRuntime()
	cpu0, wall0 := cpuTime(), time.Now()
	results := suite.Run(suite.Options{Ghost: oracle, Bugs: o.bugs, Instrument: mark})
	p := pass{cpu: cpuTime() - cpu0, wall: time.Since(wall0), results: results}
	mark(nil)
	for i, r := range results {
		if !r.Test.Concurrent && i+1 < len(marks) {
			p.serialTraps += marks[i+1] - marks[i]
		}
	}
	r1 := readRuntime()
	p.cnt = readCounters().sub(c0)
	p.rt = rtSample{allocBytes: r1.allocBytes - r0.allocBytes, gcCPU: r1.gcCPU - r0.gcCPU}
	return p
}

// tracedPass runs every test the way suite.Run does, but boots each
// system with a tracer so the per-layer spans are recorded. The
// concurrent tests drive several hardware threads onto one trace lane,
// whose spans could not nest, so they run untraced.
func tracedPass(o options, tr *trace.Tracer, st *spanStats) (cpu time.Duration, execMS []float64, traced int, err error) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	runtime.GC()
	cpu0 := cpuTime()
	for _, t := range suite.All() {
		t0 := time.Now()
		cfg := hyp.Config{Inj: faults.NewInjector(o.bugs...)}
		if !t.Concurrent {
			cfg.Tracer = tr
		}
		hv, err := hyp.New(cfg)
		if err != nil {
			return 0, nil, 0, err
		}
		if cfg.Tracer != nil {
			traced++
		}
		c := &suite.Ctx{D: proxy.New(hv), HV: hv, Rec: ghost.Attach(hv)}
		sp := cfg.Tracer.Begin(0, spanTest)
		runErr := t.Run(c)
		sp.End()
		if runErr != nil || len(c.Rec.Failures()) > 0 {
			return 0, nil, 0, fmt.Errorf("traced test %s: err=%v, %d alarms", t.Name, runErr, len(c.Rec.Failures()))
		}
		execMS = append(execMS, float64(time.Since(t0))/float64(time.Millisecond))
	}
	cpu = cpuTime() - cpu0
	st.add(tr.Spans())
	return cpu, execMS, traced, nil
}

// suiteCoverage is the implementation coverage of one checked pass.
func suiteCoverage() (int, error) {
	agg, results := suite.CoverageBaseline()
	for _, r := range results {
		if !r.Passed() {
			return 0, fmt.Errorf("coverage pass: %s failed", r.Test.Name)
		}
	}
	return agg.Report().ImplCovered, nil
}

// checkedSystemMB is the live heap while one freshly booted checked
// system is held: what the oracle costs in memory per system. A pass
// keeps no system alive, so its own live heap would measure nothing.
func checkedSystemMB(o options) (float64, error) {
	hv, err := hyp.New(hyp.Config{Inj: faults.NewInjector(o.bugs...)})
	if err != nil {
		return 0, err
	}
	rec := ghost.Attach(hv)
	mb := liveHeapMB()
	runtime.KeepAlive(rec)
	return mb, nil
}

// measureBoots times n set-ups of one checked system: hyp.New plus
// ghost.Attach.
func measureBoots(o options, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		hv, err := hyp.New(hyp.Config{Inj: faults.NewInjector(o.bugs...)})
		if err != nil {
			return nil, err
		}
		ghost.Attach(hv)
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// suiteGCPercent is the collector target (GOGC) of the suite workload.
// At the default, the suite's tiny live heap has the collector run
// dozens of times per pass, and its idle mark workers on the spare core
// moved the CPU time of identical runs by about 10%; at 400, by about
// 3%. The campaign workloads run at the program's default.
const suiteGCPercent = 400

func runSuite(o options) (*outcome, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(suiteGCPercent))
	out := newOutcome()
	nTests, nSerial := len(suite.All()), 0
	for _, t := range suite.All() {
		if !t.Concurrent {
			nSerial++
		}
	}

	cov, err := suiteCoverage()
	if err != nil {
		out.fail("%v", err)
	}

	var (
		setups                  []float64
		onCPU, offCPU, onWall   []float64
		heaps, allocs, gcFracs  []float64
		testMS, execMS, tracedC []float64
		cnt                     counters
		onPasses, tracedTests   int
		firstTraps              uint64
		stats                   = newSpanStats()
		dropped                 uint64
	)
	// In a traced run every pass holds an empty ring of the same size,
	// so the collector sees the same heap whether or not it records.
	var ring *trace.Tracer
	if o.trace {
		ring = trace.NewTracer(1, suiteRingDepth)
	}
	deadline := time.Now().Add(o.duration())
	for p := 0; p < 3 || time.Now().Before(deadline); p++ {
		s, err := measureBoots(o, o.setups())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s...)
		mb, err := checkedSystemMB(o)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		heaps = append(heaps, mb)
		out.attempted++
		ok := true
		check := func(cond bool, format string, args ...any) {
			if !cond {
				ok = false
				out.note("pair %d: "+format, append([]any{p}, args...)...)
			}
		}
		// One oracle-on and one oracle-off pass, alternating which runs
		// first.
		for j := 0; j < 2; j++ {
			oracle := (p+j)%2 == 0
			ps := runPass(o, oracle)
			passed := 0
			for _, r := range ps.results {
				if r.Passed() {
					passed++
				}
			}
			check(passed == nTests && len(ps.results) == nTests,
				"oracle=%v: %d/%d tests passed", oracle, passed, nTests)
			fmt.Fprintf(os.Stderr, "perfbench: pair %d oracle=%v: %.3fs CPU, %.3fs wall\n",
				p, oracle, ps.cpu.Seconds(), ps.wall.Seconds())
			if !oracle {
				offCPU = append(offCPU, ps.cpu.Seconds())
				continue
			}
			check(ps.cnt.traps > 0 && ps.cnt.checks == ps.cnt.traps,
				"%d oracle checks for %d traps", ps.cnt.checks, ps.cnt.traps)
			if onPasses == 0 {
				firstTraps = ps.serialTraps
			}
			check(ps.serialTraps == firstTraps,
				"%d traps in the serial tests, first pass had %d", ps.serialTraps, firstTraps)
			onPasses++
			onCPU = append(onCPU, ps.cpu.Seconds())
			onWall = append(onWall, ps.wall.Seconds())
			allocs = append(allocs, ps.rt.allocBytes/1e6/float64(nTests))
			gcFracs = append(gcFracs, ps.rt.gcCPU/ps.cpu.Seconds())
			cnt.add(ps.cnt)
			for _, r := range ps.results {
				testMS = append(testMS, float64(r.Duration)/float64(time.Millisecond))
			}
		}
		if o.trace {
			c, ms, n, err := tracedPass(o, ring, stats)
			dropped += ring.Dropped()
			ring = trace.NewTracer(1, suiteRingDepth)
			if err != nil {
				check(false, "%v", err)
			} else {
				tracedC = append(tracedC, c.Seconds())
				execMS = append(execMS, ms...)
				tracedTests += n
			}
		}
		if !ok {
			out.failed++
		}
	}
	runtime.KeepAlive(ring)
	// The suite is deterministic: a second coverage pass must agree.
	if again, err := suiteCoverage(); err != nil || again != cov {
		out.fail("coverage repeat: %d points, first pass %d (%v)", again, cov, err)
	}

	on, off := median(onCPU), median(offCPU)
	m := out.metrics
	m["execs_per_cpu_s"] = ratio(float64(nTests), on)
	m["coverage_points"] = float64(cov)
	m["checked_frac"] = ratio(float64(cnt.checks), float64(cnt.traps))
	m["setup_s"] = median(setups)
	m["heap_live_mb"] = median(heaps)
	m["suite_ms"] = 1000 * on
	m["oracle_overhead_x"] = ratio(on, off)

	tests := float64(onPasses * nTests)
	m["hyp.trap_self_us"] = ratio(float64(stats.self["hyp.trap"]), float64(stats.count["hyp.trap"])*1e3)
	m["hyp.traps_per_exec"] = ratio(float64(firstTraps), float64(nSerial))
	m["ghost.oracle_frac"] = ratio(on-off, on)
	m["ghost.cache_hit_frac"] = ratio(float64(cnt.cacheHits), float64(cnt.cacheHits+cnt.cacheMisses+cnt.cachePartial))
	m["ghost.check_us"] = stats.perCount("ghost.check", time.Microsecond)
	m["runtime.alloc_mb_per_exec"] = median(allocs)
	m["runtime.gc_cpu_frac"] = median(gcFracs)
	// The suite boots a fresh system per test: no snapshots, no
	// generator, no scheduler.
	m["snapshot.restore_ms_per_exec"] = 0
	m["snapshot.fork_hit_frac"] = 0
	m["snapshot.dirty_frames_per_restore"] = 0
	m["randtest.gen_ms_per_exec"] = 0
	m["sched.preemptions_per_exec"] = ratio(float64(cnt.preemptions), tests)
	m["sched.parked_us_per_preemption"] = ratio(float64(stats.wait["sched.preempt"])/1e3, float64(stats.waits["sched.preempt"]))
	m["sched.replay_ms_per_exec"] = 0
	m["campaign.exec_ms_p50"] = quantile(execMS, 0.5)
	m["campaign.exec_ms_p90"] = quantile(execMS, 0.9)
	m["campaign.wall_execs_per_s"] = ratio(float64(nTests), median(onWall))
	m["spinlock.wait_ms_per_exec"] = ratio(float64(cnt.lockWaitNS)/1e6, tests)
	m["pgtable.mutate_us"] = stats.perCount("pgtable.mutate", time.Microsecond)
	m["pgtable.mutates_per_exec"] = ratio(float64(stats.count["pgtable.mutate"]), float64(tracedTests))
	m["arch.tlb_hit_frac"] = ratio(float64(cnt.tlbHits), float64(cnt.tlbHits+cnt.tlbMisses))
	m["arch.tlb_invalidate_ms_per_exec"] = ratio(float64(stats.total["tlb.invalidate"])/1e6, float64(tracedTests))
	m["suite.test_ms_p50"] = quantile(testMS, 0.5)
	m["suite.test_ms_p90"] = quantile(testMS, 0.9)
	m["trace.overhead_frac"] = 1 - ratio(on, median(tracedC))
	m["trace.dropped_spans"] = float64(dropped)

	if o.trace {
		if err := bootProbe(hyp.Config{}, o, m); err != nil {
			return nil, err
		}
		out.traceGates(stats, dropped)
		stats.print(os.Stderr)
	}
	return out, nil
}
