package campaign

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ghostspec/internal/core/ghost"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// spanCounts folds a tracer's aggregate into per-name counts, after
// checking that its rings kept every span.
func spanCounts(t *testing.T, tr *trace.Tracer) map[string]uint64 {
	t.Helper()
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d spans; the counts below would be partial", d)
	}
	out := map[string]uint64{}
	for _, a := range tr.Aggregate() {
		out[a.Name] = a.Count
	}
	return out
}

// counterDelta returns how far the named counter moved since before.
func counterDelta(before, after telemetry.Snap, name string) uint64 {
	b, _ := before.Counter(name)
	a, _ := after.Counter(name)
	return a - b
}

// traced runs fn with span recording on, into a tracer of lanes rings
// deep enough for the whole run, and returns the tracer with the
// counter snapshots taken around fn.
func traced(lanes int, fn func(*trace.Tracer)) (*trace.Tracer, telemetry.Snap, telemetry.Snap) {
	tr := trace.NewTracer(lanes, 1<<17)
	before := telemetry.Snapshot()
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	fn(tr)
	return tr, before, telemetry.Snapshot()
}

// checkCountersMatchSpans compares each counter that counts the same
// event as a span family: traps, oracle checks, TLB fills and parks.
func checkCountersMatchSpans(t *testing.T, tr *trace.Tracer, before, after telemetry.Snap) map[string]uint64 {
	t.Helper()
	spans := spanCounts(t, tr)
	var trapSpans uint64
	for name, n := range spans {
		if strings.HasPrefix(name, "hyp.trap:") {
			trapSpans += n
		}
	}
	for _, c := range []struct {
		counter, span string
		spans         uint64
	}{
		{"hyp_traps_total", "hyp.trap:*", trapSpans},
		{"ghost_checks_total", "ghost.check", spans["ghost.check"]},
		{"tlb_misses_total", "tlb.fill", spans["tlb.fill"]},
		{"sched_preemptions", "sched.preempt", spans["sched.preempt"]},
	} {
		if d := counterDelta(before, after, c.counter); d != c.spans {
			t.Errorf("%s moved by %d, but %d %s spans were recorded", c.counter, d, c.spans, c.span)
		}
	}
	if trapSpans == 0 || spans["tlb.fill"] == 0 {
		t.Errorf("run recorded %d trap and %d tlb.fill spans; want some of each", trapSpans, spans["tlb.fill"])
	}
	return spans
}

// TestCountersMatchSpans checks that every counter with a span
// counterpart agrees with it on a traced run whose rings drop nothing.
// A clean run never abandons a schedule, so LockContended's deadlock
// undo, which counts a preemption without parking, does not occur.
func TestCountersMatchSpans(t *testing.T) {
	t.Run("campaign", func(t *testing.T) {
		// Two workers, each fuzzing schedules of two vCPUs on its own
		// snapshot-restored system.
		var rep *Report
		tr, before, after := traced(2, func(tr *trace.Tracer) {
			var err error
			rep, err = Run(Config{
				Workers: 2, StepsPerRun: 60, Seed: 5, MaxExecs: 12,
				NrCPUs: 2, SchedFuzz: true, ConformanceEvery: 4, Tracer: tr,
			})
			if err != nil {
				t.Fatalf("campaign: %v", err)
			}
		})
		if len(rep.Findings) != 0 {
			t.Fatalf("clean campaign produced %d findings", len(rep.Findings))
		}
		spans := checkCountersMatchSpans(t, tr, before, after)
		if rep.SnapshotRestores == 0 || rep.SnapshotRestores != int64(spans["exec.restore"]) {
			t.Errorf("report counts %d snapshot restores, but %d exec.restore spans were recorded",
				rep.SnapshotRestores, spans["exec.restore"])
		}
	})

	t.Run("schedulers", func(t *testing.T) {
		// Two 2-vCPU systems replaying scheduled traces side by side,
		// each scheduler on its own lane.
		trs := []*randtest.Trace{fuzzedTrace(t, 31, 120), fuzzedTrace(t, 32, 120)}
		scheds := make([]*sched.Scheduler, len(trs))
		tr, before, after := traced(len(trs), func(tr *trace.Tracer) {
			var wg sync.WaitGroup
			errs := make([]error, len(trs))
			for i := range trs {
				hv, err := hyp.New(hyp.Config{NrCPUs: 2, Tracer: tr, TraceLane: i})
				if err != nil {
					t.Fatalf("boot: %v", err)
				}
				rec := ghost.Attach(hv)
				scheds[i] = sched.New(2, sched.WithSeed(uint64(i+1)), sched.WithTracer(tr, i))
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = randtest.ReplayScheduled(proxy.New(hv), trs[i], scheds[i])
					if n := len(rec.Failures()); n > 0 && errs[i] == nil {
						errs[i] = fmt.Errorf("clean hypervisor raised %d alarms", n)
					}
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("scheduled replay %d: %v", i, err)
				}
			}
		})
		spans := checkCountersMatchSpans(t, tr, before, after)
		var parks uint64
		for _, s := range scheds {
			parks += s.Preemptions()
		}
		if parks == 0 || parks != spans["sched.preempt"] {
			t.Errorf("schedulers count %d preemptions, but %d sched.preempt spans were recorded",
				parks, spans["sched.preempt"])
		}
	})
}
