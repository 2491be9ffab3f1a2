package campaign

import (
	"testing"

	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
	"ghostspec/internal/spinlock"
)

// TestSchedStressRace drives 4-vCPU scheduled replays of fuzzed traces
// under a spread of random schedules with the runtime rank validator
// armed. Its real value is under the race detector (the CI race job
// runs it both via ./... and as a named step): cross-stream data
// races, lock-rank inversions surfacing only in interleaved windows,
// and scheduler protocol bugs (lost grants, double grants) all land
// here. On the clean hypervisor every run must be silent.
func TestSchedStressRace(t *testing.T) {
	spinlock.EnableRankCheck()
	t.Cleanup(spinlock.DisableRankCheck)

	schedules := 8
	if testing.Short() {
		schedules = 2
	}
	tr := fuzzedTrace(t, 424242, 160)
	for seed := uint64(0); seed < uint64(schedules); seed++ {
		d, rec, _ := bootScheduled(t, 4)
		s := sched.New(4, sched.WithSeed(seed))
		if err := randtest.ReplayScheduled(d, tr, s); err != nil {
			t.Fatalf("schedule seed %d: %v\nschedule: %s", seed, err, s.Record())
		}
		if n := len(rec.Failures()); n > 0 {
			t.Fatalf("schedule seed %d: clean hypervisor raised %d alarms; first: %s\nschedule: %s",
				seed, n, rec.Failures()[0].String(), s.Record())
		}
		if s.Preemptions() == 0 {
			t.Fatalf("schedule seed %d: no preemptions recorded — scheduler not engaged", seed)
		}
	}
}
