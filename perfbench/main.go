// Command perfbench is the repository's benchmark: it drives the
// checked-execution pipeline through its public entry points, checks
// that every output is correct, and prints every metric by name with
// its unit. Each workload is a closed loop in this one process.
//
//	bash perfbench/run.sh --workload guided --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans and prints the per-layer metrics instead. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 30, "failed": 0, "metrics": {...}}
//
// README.md lists the workloads, the metrics, and which end-to-end
// metric each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ghostspec/internal/core/ghost"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
)

// spec is one reported metric: its name and unit.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the oracle sees; every workload
// reports all of them with --trace 0.
var endToEnd = []spec{
	{"execs_per_cpu_s", "1/s"},
	{"coverage_points", "count"},
	{"checked_frac", "frac"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"suite_ms", "ms"},
	{"oracle_overhead_x", "x"},
}

// perLayer are the single-layer metrics; every workload reports all of
// them with --trace 1 (zero where the workload never enters the layer).
var perLayer = []spec{
	{"hyp.trap_self_us", "us"},
	{"hyp.traps_per_exec", "count"},
	{"ghost.oracle_frac", "frac"},
	{"ghost.cache_hit_frac", "frac"},
	{"ghost.check_us", "us"},
	{"runtime.alloc_mb_per_exec", "MB"},
	{"runtime.gc_cpu_frac", "frac"},
	{"snapshot.restore_ms_per_exec", "ms"},
	{"snapshot.fork_hit_frac", "frac"},
	{"snapshot.dirty_frames_per_restore", "count"},
	{"randtest.gen_ms_per_exec", "ms"},
	{"campaign.exec_ms_p50", "ms"},
	{"campaign.exec_ms_p90", "ms"},
	{"campaign.wall_execs_per_s", "1/s"},
	{"sched.preemptions_per_exec", "count"},
	{"sched.parked_us_per_preemption", "us"},
	{"sched.replay_ms_per_exec", "ms"},
	{"spinlock.wait_ms_per_exec", "ms"},
	{"pgtable.mutate_us", "us"},
	{"pgtable.mutates_per_exec", "count"},
	{"arch.tlb_hit_frac", "frac"},
	{"arch.tlb_invalidate_ms_per_exec", "ms"},
	{"suite.boot_us", "us"},
	{"suite.attach_us", "us"},
	{"suite.boot_overhead_x", "x"},
	{"suite.test_ms_p50", "ms"},
	{"suite.test_ms_p90", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.dropped_spans", "count"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"guided": func(o options) (*outcome, error) {
		return runCampaign(campaignWorkload{nrCPUs: 4, unitExecs: 32}, o)
	},
	"sched-2cpu": func(o options) (*outcome, error) {
		return runCampaign(campaignWorkload{nrCPUs: 2, schedFuzz: true, unitExecs: 4}, o)
	},
	"suite": runSuite,
}

// options are one run's settings. The self-test alone sets bugs, to show
// the gates fail on a faulty build, and tiny, to shrink every unit to a
// few executions.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	bugs    []faults.Bug
	tiny    bool
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// scale shrinks a work size in tiny mode.
func (o options) scale(n int64) int64 {
	if o.tiny {
		return max(1, n/16)
	}
	return n
}

// setups is how many set-ups are timed before each unit of work;
// setup_s is the median over the run.
func (o options) setups() int {
	if o.tiny {
		return 1
	}
	return 6
}

// outcome is one run's gate tally and metric values.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// note records why an operation failed a gate.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records an operation that failed outright.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note(format, args...)
}

// traceGates fails the traced run when its accounting is unusable:
// spans lost to the ring, or a span whose children outlast it.
func (o *outcome) traceGates(st *spanStats, dropped uint64) {
	if dropped > 0 {
		o.fail("trace: %d spans dropped", dropped)
	}
	if st.negative > 0 {
		o.fail("trace: %d spans with negative self time", st.negative)
	}
	if len(st.self) == 0 {
		o.fail("trace: no spans recorded")
	}
}

// bootProbe times batches of boots with and without the oracle
// attached, alternating, for the boot-layer metrics. Single boots are
// too short to time against the collector; a batch is not.
func bootProbe(cfg hyp.Config, o options, m map[string]float64) error {
	batch := int(o.scale(32))
	var off, on, attach []float64
	for r := 0; r < 6; r++ {
		for _, oracle := range []bool{r%2 == 0, r%2 != 0} {
			runtime.GC()
			var boot, att time.Duration
			for i := 0; i < batch; i++ {
				t0 := cpuTime()
				hv, err := hyp.New(cfg)
				if err != nil {
					return err
				}
				t1 := cpuTime()
				boot += t1 - t0
				if oracle {
					ghost.Attach(hv)
					att += cpuTime() - t1
				}
			}
			if oracle {
				on = append(on, float64(boot+att)/float64(batch))
				attach = append(attach, float64(att)/float64(batch))
			} else {
				off = append(off, float64(boot)/float64(batch))
			}
		}
	}
	m["suite.boot_us"] = median(off) / 1e3
	m["suite.attach_us"] = median(attach) / 1e3
	m["suite.boot_overhead_x"] = ratio(median(on), median(off))
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report selects the mode's metric set, failing if a runner left one
// out.
func report(out *outcome, traced bool) (result, error) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	r := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, s := range set {
		v, ok := out.metrics[s.name]
		if !ok {
			return r, fmt.Errorf("metric %s not measured", s.name)
		}
		r.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return r, nil
}

func main() {
	var (
		name = flag.String("workload", "", "workload: guided, sched-2cpu or suite")
		seed = flag.Int64("seed", 1, "seed every input is derived from")
		secs = flag.Float64("seconds", 10, "measurement time")
		trc  = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	out, err := run(options{seed: *seed, seconds: *secs, trace: *trc == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range out.notes {
		fmt.Fprintf(os.Stderr, "perfbench: gate: %s\n", n)
	}
	res, err := report(out, *trc == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
