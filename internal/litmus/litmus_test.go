package litmus

import (
	"testing"

	"ghostspec/internal/faults"
	"ghostspec/internal/spinlock"
)

func budget(t *testing.T) Budget {
	t.Helper()
	if testing.Short() {
		return Budget{MaxDepth: 10, MaxRuns: 120}
	}
	return DefaultBudget
}

// TestLitmusCleanPassesAllEnumeratedSchedules is the forbidden-outcome
// half of the litmus contract: on the clean hypervisor, no schedule in
// the bounded enumeration produces an oracle alarm or a scheduler
// failure — with the runtime rank validator armed, so lock-discipline
// violations would also surface.
func TestLitmusCleanPassesAllEnumeratedSchedules(t *testing.T) {
	spinlock.EnableRankCheck()
	t.Cleanup(spinlock.DisableRankCheck)
	for _, lit := range Suite() {
		lit := lit
		t.Run(lit.Name, func(t *testing.T) {
			out, err := Enumerate(func() (*Env, error) { return Boot() }, &lit, false, budget(t), false)
			if err != nil {
				t.Fatalf("enumerate: %v", err)
			}
			t.Logf("%d schedules enumerated (truncated=%v)", out.Runs, out.Truncated)
			if out.Failing != nil {
				t.Fatalf("clean hypervisor failed under schedule %s\nalarms: %d, runErr: %v",
					out.Failing, len(out.Failures), out.RunErr)
			}
		})
	}
}

// TestLitmusSeededBugsDetected is the detection half: with its named
// bug seeded, every litmus fails under at least one enumerated
// schedule, and the failing schedule minimizes to a short replayable
// (trace, schedule) repro, printed below.
func TestLitmusSeededBugsDetected(t *testing.T) {
	spinlock.EnableRankCheck()
	t.Cleanup(spinlock.DisableRankCheck)
	for _, lit := range Suite() {
		lit := lit
		t.Run(lit.Name, func(t *testing.T) {
			var bugs []faults.Bug
			if lit.Bug != "" {
				bugs = append(bugs, lit.Bug)
			}
			boot := func() (*Env, error) { return Boot(bugs...) }
			out, err := Enumerate(boot, &lit, true, budget(t), true)
			if err != nil {
				t.Fatalf("enumerate: %v", err)
			}
			if out.Failing == nil {
				t.Fatalf("seeded bug %q not detected in %d enumerated schedules (truncated=%v)",
					lit.Bug, out.Runs, out.Truncated)
			}
			minSched, runs, err := MinimizeSchedule(boot, &lit, true, out.Failing, 200)
			if err != nil {
				t.Fatalf("minimize: %v", err)
			}
			if minSched.Len() > 10 {
				t.Errorf("minimized schedule has %d steps, want <= 10:\n%s", minSched.Len(), minSched)
			}
			detail := ""
			if len(out.Failures) > 0 {
				detail = out.Failures[0].String()
			} else if out.RunErr != nil {
				detail = out.RunErr.Error()
			}
			name := string(lit.Bug)
			if name == "" {
				name = "bugdemo lock inversion"
			}
			t.Logf("detected %q after %d schedules; minimized repro (%d steps, %d minimize runs):\ntrace:\n%sschedule: %s\nfirst failure: %s",
				name, out.Runs, minSched.Len(), runs, lit.Trace, minSched, detail)
		})
	}
}
