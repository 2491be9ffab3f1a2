package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"ghostspec/internal/faults"
	"ghostspec/internal/telemetry/trace"
)

// tiny is the self-test size: every unit shrunk to a few executions.
func tiny(traced bool, bugs ...faults.Bug) options {
	return options{seed: 1, seconds: 0.2, trace: traced, tiny: true, bugs: bugs}
}

// TestEveryWorkloadReportsEveryMetric runs each workload at tiny size,
// untraced and traced, and checks the gates pass on the clean build and
// every metric of the mode is reported with its unit.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := run(tiny(traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			res, err := report(out, traced)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, traced, res.Correct, res.Attempted, res.Failed, out.notes)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, s.name, m, s.unit)
				}
			}
		}
	}
}

// TestGatesFailOnInjectedBug shows the correctness gates are not
// vacuous: with a planted bug each workload reports failed operations.
func TestGatesFailOnInjectedBug(t *testing.T) {
	const bug = faults.BugUnshareSkipTLBI
	for name, run := range workloads {
		out, err := run(tiny(false, bug))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := report(out, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with %s: correct=%v failed=%d of %d, want failures",
				name, bug, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []named, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d entries, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("workloads %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("workloads %v, want %v", got, want)
		}
	}
}

// TestSelfTimeIgnoresEmittedSpans checks the self-time accounting on a
// hand-built lane: an emitted wait span that overlaps a trap is wait
// time, not a child, so no self time goes negative.
func TestSelfTimeIgnoresEmittedSpans(t *testing.T) {
	st := newSpanStats()
	st.add(fakeSpans())
	if st.negative != 0 || st.unnested != 0 {
		t.Fatalf("negative=%d unnested=%d", st.negative, st.unnested)
	}
	if got := st.self["hyp.trap"]; got != 60 {
		t.Errorf("hyp.trap self = %v, want 60", got)
	}
	if got := st.self["exec"]; got != 20 {
		t.Errorf("exec self = %v, want 20", got)
	}
	if got := st.wait["sched.preempt"]; got != 70 {
		t.Errorf("sched.preempt wait = %v, want 70", got)
	}
	if st.execWall != 100 {
		t.Errorf("exec wall = %v, want 100", st.execWall)
	}
}

var (
	fakeExec    = trace.NewName("exec")
	fakeTrap    = trace.NewName("hyp.trap:host_share_hyp")
	fakeCheck   = trace.NewName("ghost.check")
	fakePreempt = trace.NewName("sched.preempt")
)

// fakeSpans is one exec on one lane: a trap with an oracle check inside,
// and a parked interval emitted by another vCPU across most of the trap.
func fakeSpans() []trace.Span {
	return []trace.Span{
		{Name: fakeExec, Start: 0, Dur: 100, Depth: 0, Parent: -1},
		{Name: fakeTrap, Start: 10, Dur: 80, Depth: 1},
		{Name: fakePreempt, Start: 20, Dur: 70, Depth: 0, Parent: -1},
		{Name: fakeCheck, Start: 70, Dur: 20, Depth: 2},
	}
}
