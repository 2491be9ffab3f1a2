package campaign

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"testing"
	"time"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/coverage"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
)

// bootScheduled boots a standalone multi-CPU system with the oracle
// and coverage attached, outside the engine, for replay-determinism
// checks.
func bootScheduled(t *testing.T, cpus int, bugs ...faults.Bug) (*proxy.Driver, *ghost.Recorder, *coverage.Tracker) {
	t.Helper()
	hv, err := hyp.New(hyp.Config{NrCPUs: cpus, Inj: faults.NewInjector(bugs...)})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	rec := ghost.Attach(hv)
	cov := coverage.Wrap(hv, rec)
	hv.SetInstrumentation(cov)
	return proxy.New(hv), rec, cov
}

// fuzzedTrace generates one serial trace on a throwaway system — raw
// material for the scheduled-replay determinism checks.
func fuzzedTrace(t *testing.T, seed int64, steps int) *randtest.Trace {
	t.Helper()
	d, rec, _ := bootScheduled(t, 4)
	tester := randtest.New(d, rec, seed, true)
	tester.Trace = &randtest.Trace{}
	tester.Run(steps)
	return tester.Trace
}

// TestScheduledReplayIsDeterministic is the cross-system determinism
// regression for the (trace, schedule) reproduction recipe: record a
// fuzzed multi-CPU scheduled execution, then replay the pair on a
// second freshly booted process-state and require byte-identical
// coverage, identical schedules, identical preemption counts, and
// identical flight-recorder contents (durations zeroed — wall time is
// the one thing the recipe does not pin).
func TestScheduledReplayIsDeterministic(t *testing.T) {
	tr := fuzzedTrace(t, 20260808, 120)

	type result struct {
		sched       *sched.Schedule
		preemptions uint64
		coverage    string
		failures    int
		flight      string
	}
	exec := func(policy sched.Option) result {
		d, rec, cov := bootScheduled(t, 2)
		s := sched.New(2, policy)
		if err := randtest.ReplayScheduled(d, tr, s); err != nil {
			t.Fatalf("scheduled replay: %v", err)
		}
		var flight string
		for cpu, evs := range d.HV.FlightRecorder().DumpAll() {
			for _, ev := range evs {
				ev.Dur = 0
				flight += fmt.Sprintf("cpu%d %s\n", cpu, ev.String())
			}
		}
		return result{
			sched:       s.Record(),
			preemptions: s.Preemptions(),
			coverage:    fmt.Sprintf("%+v", cov.Snapshot()),
			failures:    len(rec.Failures()),
			flight:      flight,
		}
	}

	first := exec(sched.WithSeed(99))
	if first.failures != 0 {
		t.Fatalf("clean hypervisor raised %d alarms under scheduling", first.failures)
	}
	if first.preemptions == 0 {
		t.Fatal("scheduled replay recorded no preemptions")
	}
	replayed := exec(sched.WithReplay(first.sched))
	if got, want := replayed.sched.String(), first.sched.String(); got != want {
		t.Fatalf("replayed schedule differs:\n  want %s\n  got  %s", want, got)
	}
	if replayed.preemptions != first.preemptions {
		t.Fatalf("preemption count differs: %d vs %d", replayed.preemptions, first.preemptions)
	}
	if replayed.coverage != first.coverage {
		t.Fatalf("coverage differs:\n  want %s\n  got  %s", first.coverage, replayed.coverage)
	}
	if replayed.flight != first.flight {
		t.Fatalf("flight-recorder contents differ:\n  want:\n%s\n  got:\n%s", first.flight, replayed.flight)
	}

	// Same seed from scratch must also reproduce (seed-only recipe).
	seeded := exec(sched.WithSeed(99))
	if seeded.sched.String() != first.sched.String() {
		t.Fatalf("same seed produced a different schedule:\n  %s\n  %s", first.sched, seeded.sched)
	}
}

// TestStaleScheduleFailsLoudly pins the stale-schedule contract end to
// end: a recorded schedule whose point IDs are not registered (a point
// was added, removed or renamed since) must fail the replay loudly,
// not silently diverge.
func TestStaleScheduleFailsLoudly(t *testing.T) {
	tr := fuzzedTrace(t, 7, 40)
	d, _, _ := bootScheduled(t, 2)
	stale := &sched.Schedule{Steps: []sched.Step{{VCPU: 0, Point: 0xfeedfacecafebeef}}}
	s := sched.New(2, sched.WithReplay(stale))
	err := randtest.ReplayScheduled(d, tr, s)
	if err == nil {
		t.Fatal("scheduled replay accepted a stale schedule")
	}
	if got := err.Error(); !contains(got, "not in the current table") || !contains(got, "re-record the schedule") {
		t.Fatalf("stale-schedule error is not actionable: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(sub) == 0 || (len(s) >= len(sub) && index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestSchedFuzzCampaignSmoke runs a short schedule-fuzzing campaign on
// a clean hypervisor: it completes with execs and no findings.
func TestSchedFuzzCampaignSmoke(t *testing.T) {
	rep, err := Run(Config{
		Workers:     2,
		StepsPerRun: 60,
		Seed:        11,
		MaxExecs:    16,
		NrCPUs:      2,
		SchedFuzz:   true,
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(rep.Findings) != 0 {
		f := rep.Findings[0]
		t.Fatalf("clean hypervisor produced %d findings; first: alarms=%d schedErr=%q min:\n%s",
			len(rep.Findings), len(f.Failures), f.SchedErr, f.Min)
	}
	if rep.Execs == 0 {
		t.Fatal("campaign ran no execs")
	}
}

// TestFaultMatrixFuzzedSchedules extends the tier-1 detection matrix
// with the concurrency leg: every planted bug must still be detected
// with schedule fuzzing enabled on 2-vCPU systems — serial detection
// keeps working, and schedule-dependent alarms can only add findings.
func TestFaultMatrixFuzzedSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzed-schedule matrix is not a -short test")
	}
	base := Config{
		Workers:       2,
		StepsPerRun:   250,
		Seed:          3,
		MaxExecs:      400,
		ShrinkReplays: 2000,
		NrCPUs:        2,
		SchedFuzz:     true,
	}
	matrix := FaultSweep(base, faults.All(), sweepSkip)
	if len(matrix) != len(faults.All()) {
		t.Fatalf("matrix has %d rows, want %d", len(matrix), len(faults.All()))
	}
	t.Logf("fuzzed-schedule detection matrix:\n%s", FormatMatrix(matrix))
	for _, m := range matrix {
		if m.Skipped {
			continue
		}
		if m.Err != nil {
			t.Errorf("%s: campaign error: %v", m.Bug, m.Err)
			continue
		}
		if !m.Detected {
			t.Errorf("%s (%s): not detected under fuzzed schedules within %d execs", m.Bug, m.Class, m.Execs)
		}
	}
}

// loadRaceTrace is a hand-built schedule-dependent failure under
// BugVCPULoadRace: stream 0 creates and initialises a VM's vCPU,
// stream 1 loads it. Serially (trace order) the load follows the init
// and every replay is clean; scheduled, any interleaving that lands
// the load between init-vm and init-vcpu makes the buggy hypervisor
// return OK where the spec demands ENOENT — an oracle alarm that
// exists only under some schedules.
func loadRaceTrace() *randtest.Trace {
	return &randtest.Trace{Ops: []randtest.Op{
		{Kind: randtest.OpInitVM, CPU: 0, Nr: 1, H: 1},
		{Kind: randtest.OpInitVCPU, CPU: 0, H: 1, VCPU: 0},
		{Kind: randtest.OpLoad, CPU: 1, H: 1, VCPU: 0},
	}}
}

// TestShrinkScheduledMinimizesPair exercises the joint shrinker on a
// genuinely schedule-dependent failure and requires the minimized
// (trace, schedule-prefix) pair to reproduce on a fresh system.
func TestShrinkScheduledMinimizesPair(t *testing.T) {
	tr := loadRaceTrace()

	// Serial replay must be clean: the bug is invisible in trace order.
	d, rec, _ := bootScheduled(t, 2, faults.BugVCPULoadRace)
	randtest.Replay(d, tr)
	if n := len(rec.Failures()); n != 0 {
		t.Fatalf("serial replay of the load-race trace raised %d alarms; want schedule-dependence", n)
	}

	// Find a schedule seed whose interleaving exposes the race. The
	// window needs several consecutive grants to the loading vCPU at
	// exactly the init-vm/init-vcpu seam, so a few hundred seeds is the
	// right order of magnitude (first hit observed at seed 119).
	schedSeed := int64(-1)
	for seed := int64(0); seed < 512; seed++ {
		d, rec, _ := bootScheduled(t, 2, faults.BugVCPULoadRace)
		s := sched.New(2, sched.WithSeed(uint64(seed)))
		if err := randtest.ReplayScheduled(d, tr, s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rec.Failures()) > 0 {
			schedSeed = seed
			break
		}
	}
	if schedSeed < 0 {
		t.Fatal("no schedule seed in [0,64) exposes the load race")
	}

	boot := func() (*proxy.Driver, *ghost.Recorder, error) {
		d, rec, _ := bootScheduled(t, 2, faults.BugVCPULoadRace)
		return d, rec, nil
	}
	min, minSched, minFailures, replays, ok := ShrinkScheduled(boot, tr, schedSeed, 2, 400)
	if !ok {
		t.Fatal("shrinker could not reproduce the scheduled failure")
	}
	if len(minFailures) == 0 {
		t.Fatal("minimized pair carries no alarms")
	}
	if min.Len() > tr.Len() {
		t.Fatalf("shrunk trace grew: %d ops from %d", min.Len(), tr.Len())
	}
	if minSched == nil {
		t.Fatal("no minimized schedule recorded")
	}
	if minSched.Len() > 10 {
		t.Errorf("minimized schedule has %d steps, want <= 10:\n%s", minSched.Len(), minSched)
	}
	t.Logf("minimized to %d ops, %d schedule steps in %d replays:\n%sschedule: %s",
		min.Len(), minSched.Len(), replays, min, minSched)

	// The pair is the complete repro recipe: replay it on a fresh
	// system and the oracle must alarm again.
	d2, rec2, _ := bootScheduled(t, 2, faults.BugVCPULoadRace)
	s2 := sched.New(2, sched.WithReplay(minSched))
	if err := randtest.ReplayScheduled(d2, min, s2); err != nil {
		t.Fatalf("pair replay: %v", err)
	}
	if len(rec2.Failures()) == 0 {
		t.Fatalf("minimized (trace, schedule) pair does not reproduce:\ntrace:\n%s\nschedule: %s", min, minSched)
	}
}

// scheduledDigest generates a guided trace of steps ops on a 2-vCPU
// system, replays it under schedule seed schedSeed on a fresh one, and
// returns the FNV-1a digest of the recorded steps and their count.
// Each step is hashed as the vCPU and its point's name (kind,
// component, package and function, and its ordinal among that
// function's points of the same kind and component). Moving a point's
// line leaves the digest alone; a crossing that names a different
// point moves it.
func scheduledDigest(t *testing.T, seed int64, schedSeed uint64, steps int) (uint64, int) {
	t.Helper()
	d, rec, _ := bootScheduled(t, 2)
	tester := randtest.New(d, rec, seed, true)
	tester.Trace = &randtest.Trace{}
	tester.Run(steps)

	d2, rec2, _ := bootScheduled(t, 2)
	s := sched.New(2, sched.WithSeed(schedSeed))
	if err := randtest.ReplayScheduled(d2, tester.Trace, s); err != nil {
		t.Fatalf("seed %d sched-seed %d: %v", seed, schedSeed, err)
	}
	if n := len(rec2.Failures()); n > 0 {
		t.Fatalf("seed %d sched-seed %d: clean hypervisor raised %d alarms", seed, schedSeed, n)
	}
	h := fnv.New64a()
	rs := s.Record().Steps
	for _, st := range rs {
		name := "boundary"
		switch p, ok := preempt.ByID(st.Point); {
		case ok:
			name = p.Name()
		case st.Point == preempt.PointLockWait:
			name = "lock-wait"
		case st.Point != preempt.PointBoundary:
			t.Fatalf("recorded step %s names no known point", st)
		}
		fmt.Fprintf(h, "%d|%s\n", st.VCPU, name)
	}
	return h.Sum64(), len(rs)
}

// TestScheduleGolden pins the schedules the deterministic scheduler
// records for fixed (generator seed, schedule seed) pairs: 2 vCPUs,
// 400 guided steps. Any change to how preemption-point crossings are
// routed or resolved — which crossings park, and which table point
// each one names — moves a digest.
func TestScheduleGolden(t *testing.T) {
	for _, c := range []struct {
		seed      int64
		schedSeed uint64
		steps     int
		hash      uint64
	}{
		{1, 1, 8155, 0xf43a8a71a93ed841},
		{7, 2, 4948, 0x4f2baf9305f6e02c},
		{42, 3, 8114, 0xafb88d7b10ce0870},
		{6174, 4, 5855, 0xe5bed0abf3061bc2},
	} {
		hash, steps := scheduledDigest(t, c.seed, c.schedSeed, 400)
		if steps != c.steps || hash != c.hash {
			t.Errorf("seed %d sched-seed %d: %d steps, digest %#x; want %d steps, %#x",
				c.seed, c.schedSeed, steps, hash, c.steps, c.hash)
		}
	}
}

// TestScheduleIsolation runs schedulers on their own systems while
// another system replays a trace unscheduled on its own goroutine:
// first scheduler A alone, then A beside a second scheduler C. Each
// scheduler binds only its own system's preemption domain, so its
// recorded schedule must equal its solo run, and the unscheduled
// replay must run clean without ever parking (a crossing routed to a
// scheduler it does not belong to would park it for good, or hand the
// scheduler a crossing its running vCPU never made).
func TestScheduleIsolation(t *testing.T) {
	trA, trB, trC := fuzzedTrace(t, 101, 150), fuzzedTrace(t, 102, 150), fuzzedTrace(t, 103, 150)
	scheduled := func(tr *randtest.Trace, seed uint64) (string, error) {
		hv, err := hyp.New(hyp.Config{NrCPUs: 2})
		if err != nil {
			return "", err
		}
		rec := ghost.Attach(hv)
		s := sched.New(2, sched.WithSeed(seed))
		if err := randtest.ReplayScheduled(proxy.New(hv), tr, s); err != nil {
			return "", err
		}
		if n := len(rec.Failures()); n > 0 {
			return "", fmt.Errorf("clean hypervisor raised %d alarms", n)
		}
		return s.Record().String(), nil
	}
	type run struct {
		name string
		tr   *randtest.Trace
		seed uint64
		want string
	}
	a, c := &run{name: "A", tr: trA, seed: 1}, &run{name: "C", tr: trC, seed: 2}
	for _, r := range []*run{a, c} {
		var err error
		if r.want, err = scheduled(r.tr, r.seed); err != nil {
			t.Fatalf("solo run %s: %v", r.name, err)
		}
	}

	// System 2: unscheduled replays, a fresh system each pass, until
	// the schedulers are done (at least one pass).
	var stop atomic.Bool
	passes := 0
	doneB := make(chan error, 1)
	go func() {
		for ; passes == 0 || !stop.Load(); passes++ {
			hv, err := hyp.New(hyp.Config{NrCPUs: 4}) // the trace's own CPUs
			if err != nil {
				doneB <- err
				return
			}
			rec := ghost.Attach(hv)
			randtest.Replay(proxy.New(hv), trB)
			if n := len(rec.Failures()); n > 0 {
				doneB <- fmt.Errorf("unscheduled replay raised %d alarms", n)
				return
			}
		}
		doneB <- nil
	}()

	timeout := time.After(2 * time.Minute)
	for _, phase := range [][]*run{{a}, {a, c}} {
		got := make([]chan string, len(phase))
		for i, r := range phase {
			got[i] = make(chan string, 1)
			go func(r *run, out chan<- string) {
				s, err := scheduled(r.tr, r.seed)
				if err != nil {
					s = err.Error()
				}
				out <- s
			}(r, got[i])
		}
		for i, r := range phase {
			select {
			case s := <-got[i]:
				if s != r.want {
					t.Errorf("scheduler %s beside %d other scheduler(s) differs from its solo run:\n  solo: %s\n  got:  %s",
						r.name, len(phase)-1, r.want, s)
				}
			case <-timeout:
				t.Fatalf("scheduler %s hung: a crossing was routed to the wrong system's scheduler", r.name)
			}
		}
	}
	stop.Store(true)
	select {
	case err := <-doneB:
		if err != nil {
			t.Fatalf("system 2: %v", err)
		}
	case <-timeout:
		t.Fatal("unscheduled replay on system 2 hung: a scheduler parked it")
	}
	t.Logf("%d unscheduled passes on system 2", passes)
}
