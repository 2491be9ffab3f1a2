package sched

import (
	"strings"
	"testing"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/spinlock"
)

// streams returns n stream functions that each append (vcpu, step) to
// a shared log at every op boundary — shared state that is only safe
// because one-token scheduling serialises it.
func streams(s *Scheduler, n, ops int, log *[][2]int) []func(int) {
	fns := make([]func(int), n)
	for i := range fns {
		fns[i] = func(vcpu int) {
			for k := 0; k < ops; k++ {
				if !s.Boundary(vcpu) {
					return
				}
				*log = append(*log, [2]int{vcpu, k})
			}
		}
	}
	return fns
}

func TestSeededScheduleIsDeterministic(t *testing.T) {
	run := func() ([][2]int, *Schedule) {
		var log [][2]int
		s := New(3, WithSeed(42))
		if err := s.Run(nil, streams(s, 3, 5, &log)...); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log, s.Record()
	}
	log1, sch1 := run()
	log2, sch2 := run()
	if len(log1) != 15 {
		t.Fatalf("log has %d entries, want 15", len(log1))
	}
	if sch1.String() != sch2.String() {
		t.Fatalf("same seed produced different schedules:\n%s\n%s", sch1, sch2)
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("same seed produced different op orders at %d: %v vs %v", i, log1[i], log2[i])
		}
	}
}

func TestReplayReproducesSchedule(t *testing.T) {
	var log1 [][2]int
	s1 := New(2, WithSeed(7))
	if err := s1.Run(nil, streams(s1, 2, 6, &log1)...); err != nil {
		t.Fatalf("record run: %v", err)
	}
	rec := s1.Record()

	var log2 [][2]int
	s2 := New(2, WithReplay(rec))
	if err := s2.Run(nil, streams(s2, 2, 6, &log2)...); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if got := s2.Record().String(); got != rec.String() {
		t.Fatalf("replay recorded a different schedule:\n  rec:    %s\n  replay: %s", rec, got)
	}
	if len(log1) != len(log2) {
		t.Fatalf("replay log length %d != %d", len(log2), len(log1))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("replay diverged at op %d: %v vs %v", i, log2[i], log1[i])
		}
	}
}

func TestStaleSchedulePointFailsLoudly(t *testing.T) {
	sch := &Schedule{Steps: []Step{{VCPU: 0, Point: 0xdeadbeefdeadbeef}}}
	s := New(1, WithReplay(sch))
	err := s.Run(nil, func(int) {})
	if err == nil {
		t.Fatal("Run accepted a schedule with an unknown point ID")
	}
	if !strings.Contains(err.Error(), "not in the current table") {
		t.Fatalf("stale-point error does not name the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "re-record the schedule") {
		t.Fatalf("stale-point error does not say what to do: %v", err)
	}
}

func TestForcedChoicesRecordArity(t *testing.T) {
	var log [][2]int
	s := New(2, WithForcedChoices(nil))
	if err := s.Run(nil, streams(s, 2, 3, &log)...); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ch := s.Choices()
	if len(ch) == 0 {
		t.Fatal("exploration run recorded no choice arities")
	}
	// Decision #0 sees both vCPUs parked at startup.
	if ch[0] != 2 {
		t.Fatalf("first decision arity = %d, want 2", ch[0])
	}
	// All-zero forced choices means lowest-id first: vCPU 0 finishes
	// all its ops before vCPU 1 starts.
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("lowest-id order violated at %d: got %v want %v", i, log[i], want[i])
		}
	}

	// Each stream parks twice before its first op (the startup park,
	// then the first Boundary), so forcing index 1 at the first two
	// decisions is what makes vCPU 1 execute the first op.
	var log2 [][2]int
	s2 := New(2, WithForcedChoices([]int{1, 1}))
	if err := s2.Run(nil, streams(s2, 2, 3, &log2)...); err != nil {
		t.Fatalf("forced Run: %v", err)
	}
	if log2[0] != [2]int{1, 0} {
		t.Fatalf("forced choice ignored: first op %v, want v1 op 0", log2[0])
	}
}

func TestContendedLockHandsOff(t *testing.T) {
	var dom preempt.Domain
	l := spinlock.New("test", nil)
	l.SetDomain(&dom)
	var order []string
	s := New(2)
	err := s.Run(&dom,
		func(v int) {
			s.Boundary(v)
			l.Lock()
			order = append(order, "v0 acquired")
			s.Boundary(v) // park inside the critical section
			order = append(order, "v0 releasing")
			l.Unlock()
		},
		func(v int) {
			s.Boundary(v)
			l.Lock() // must block: v0 holds the lock across its park
			order = append(order, "v1 acquired")
			l.Unlock()
		},
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := strings.Join(order, ", ")
	want := "v0 acquired, v0 releasing, v1 acquired"
	if got != want {
		t.Fatalf("lock handoff order = %q, want %q", got, want)
	}
	if s.Preemptions() == 0 {
		t.Fatal("no preemptions recorded")
	}
}

func TestPanicInStreamIsCaptured(t *testing.T) {
	s := New(2)
	err := s.Run(nil,
		func(v int) { s.Boundary(v) },
		func(v int) {
			s.Boundary(v)
			panic("boom from v1")
		},
	)
	if err == nil || !strings.Contains(err.Error(), "boom from v1") {
		t.Fatalf("stream panic not captured: %v", err)
	}
}

func TestScheduleStepString(t *testing.T) {
	if got := (Step{VCPU: 0, Point: preempt.PointBoundary}).String(); got != "v0@op" {
		t.Fatalf("boundary step = %q", got)
	}
	if got := (Step{VCPU: 1, Point: preempt.PointLockWait}).String(); got != "v1@lock" {
		t.Fatalf("lock-wait step = %q", got)
	}
	if got, want := (Step{VCPU: 2, Point: stringTestPoint.ID}).String(), "v2@sched.stringTest:lock-acquire:vms#0"; got != want {
		t.Fatalf("point step = %q, want %q", got, want)
	}
	if got := (Step{VCPU: 1, Point: 0xdeadbeef}).String(); got != "v1@0xdeadbeef" {
		t.Fatalf("unknown-point step = %q", got)
	}
}

var stringTestPoint = preempt.At(preempt.KindLockAcquire, "vms", "stringTest", 0)

// TestDecisionAllocationFree pins a scheduling decision's cost: with
// every cell parked, picking one and handing it the token allocates
// nothing (the grantable set lives on the stack). The record is
// presized so its amortized growth stays out of the count.
func TestDecisionAllocationFree(t *testing.T) {
	s := New(4, WithSeed(1))
	s.started = true
	s.record = make([]Step, 0, 1024)
	n := testing.AllocsPerRun(500, func() {
		s.mu.Lock()
		for i := range s.cells {
			s.cells[i].state = stateParked
		}
		s.record = s.record[:0]
		s.decideLocked()
		s.mu.Unlock()
		for i := range s.cells {
			select {
			case <-s.cells[i].grant:
			default:
			}
		}
	})
	if n != 0 {
		t.Errorf("a decision allocates %v times", n)
	}
	if len(s.record) != 1 {
		t.Fatalf("decision recorded %d steps, want 1", len(s.record))
	}
}
