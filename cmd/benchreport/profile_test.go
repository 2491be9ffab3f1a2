package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"ghostspec/internal/telemetry/trace"
)

var (
	nTrap    = trace.NewName("hyp.trap:hvc")
	nCheck   = trace.NewName("ghost.check")
	nVerify  = trace.NewName("ghost.verify")
	nPreempt = trace.NewName("sched.preempt")
	nWait    = trace.NewName("lock.wait:host")
	nExec    = trace.NewName("exec")
	nBoot    = trace.NewName("exec.boot")
	nRestore = trace.NewName("exec.restore")
	nRun     = trace.NewName("exec.run")
)

// enableTracing turns span recording on for one test.
func enableTracing(t *testing.T) {
	trace.SetEnabled(true)
	t.Cleanup(func() { trace.SetEnabled(false) })
}

// parentID returns the value a span's Parent field holds when the span
// was opened inside one named n. Name IDs are unexported, so it is read
// back from a real nested pair.
func parentID(t *testing.T, n trace.Name) int32 {
	t.Helper()
	enableTracing(t)
	tr := trace.NewTracer(1, 4)
	outer := tr.Begin(0, n)
	tr.Begin(0, nCheck).End()
	outer.End()
	for _, s := range tr.Spans() {
		if s.Depth == 1 {
			return s.Parent
		}
	}
	t.Fatal("no nested span recorded")
	return 0
}

// trapSpans is one 100µs trap whose direct child covers 40µs; the
// child's own child and a root exec span must not count.
func trapSpans(t *testing.T) []trace.Span {
	trap, check := parentID(t, nTrap), parentID(t, nCheck)
	return []trace.Span{
		{Name: nTrap, Dur: 100 * time.Microsecond, Parent: -1},
		{Name: nCheck, Dur: 40 * time.Microsecond, Parent: trap, Depth: 1},
		{Name: nVerify, Dur: 30 * time.Microsecond, Parent: check, Depth: 2},
		{Name: nRun, Dur: 500 * time.Microsecond, Parent: -1},
	}
}

func TestTrapCoverageCountsDirectChildrenOnly(t *testing.T) {
	if got := trapCoverage(trapSpans(t)); got != 40 {
		t.Errorf("trap coverage %.2f%%, want 40%%", got)
	}
}

func TestTrapCoverageExcludesPreemptsAndLockWaits(t *testing.T) {
	trap := parentID(t, nTrap)
	spans := append(trapSpans(t),
		trace.Span{Name: nPreempt, Dur: 30 * time.Microsecond, Parent: trap, Depth: 1},
		trace.Span{Name: nWait, Dur: 20 * time.Microsecond, Parent: trap, Depth: 1})
	if got := trapCoverage(spans); got != 40 {
		t.Errorf("trap coverage %.2f%%, want 40%% (sched.preempt and lock.wait:* overlap, not children)", got)
	}
}

// emit records a span of exactly dur milliseconds.
func emit(tr *trace.Tracer, n trace.Name, dur float64) {
	tr.Emit(0, n, time.Now(), time.Duration(dur*float64(time.Millisecond)))
}

// hasViolation reports whether any violation mentions substr.
func hasViolation(rep *profileReport, substr string) bool {
	for _, v := range rep.violations() {
		if strings.Contains(v, substr) {
			return true
		}
	}
	return false
}

func TestAttributionBaseIncludesRootBoots(t *testing.T) {
	enableTracing(t)
	tr := trace.NewTracer(1, 64)
	emit(tr, nExec, 100)
	emit(tr, nRun, 85)
	emit(tr, nRestore, 10)
	emit(tr, nBoot, 20) // a worker boot: a root span outside any exec
	// A boot nested in an exec is already inside the exec's time.
	ex := tr.Begin(0, nExec)
	tr.Begin(0, nBoot).End()
	ex.End()

	var rep profileReport
	rep.fold(tr)
	if rep.RootBootMS != 20 {
		t.Errorf("root boots %.3fms, want 20ms (the nested boot must not count)", rep.RootBootMS)
	}
	// (20 + 10 + 85) / (100 + 20): without the root boots in the base
	// the same phases would read 115%.
	if want := 100 * 115.0 / 120; math.Abs(rep.AttributedPct-want) > 0.1 {
		t.Errorf("attributed %.2f%%, want %.2f%%", rep.AttributedPct, want)
	}
	if hasViolation(&rep, "attribution") {
		t.Errorf("attribution gate tripped: %v", rep.violations())
	}
}

func TestDoubleCountedPhaseTripsAttributionCeiling(t *testing.T) {
	enableTracing(t)
	tr := trace.NewTracer(1, 64)
	emit(tr, nExec, 100)
	emit(tr, nRun, 90)
	emit(tr, nRestore, 60) // overlaps run: counted twice
	var rep profileReport
	rep.fold(tr)
	if rep.AttributedPct <= 100 {
		t.Fatalf("attributed %.2f%%, want over 100%%", rep.AttributedPct)
	}
	if !hasViolation(&rep, "exceeds 100%") {
		t.Errorf("no >100%% violation in %v", rep.violations())
	}
}

func TestOverheadGateBound(t *testing.T) {
	// 5% + 10ns of a 1000ns baseline is 6%.
	for _, tc := range []struct {
		pct  float64
		fail bool
	}{{5.9, false}, {6.1, true}} {
		rep := profileReport{Overhead: profileOverhead{BaselineNsPerCall: 1000, OverheadPct: tc.pct}}
		if got := hasViolation(&rep, "overhead"); got != tc.fail {
			t.Errorf("median overhead %.1f%% on 1000ns: violation %v, want %v", tc.pct, got, tc.fail)
		}
	}
}
