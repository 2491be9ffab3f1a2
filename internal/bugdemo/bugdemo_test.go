package bugdemo

import (
	"testing"

	"ghostspec/internal/core/ghost"
	"ghostspec/internal/faults"
)

func TestDemosCoverEveryBug(t *testing.T) {
	demos := Demos()
	byBug := map[faults.Bug]bool{}
	for _, d := range demos {
		if byBug[d.Bug] {
			t.Errorf("duplicate demo for %s", d.Bug)
		}
		byBug[d.Bug] = true
		if d.Description == "" {
			t.Errorf("%s has no description", d.Bug)
		}
	}
	for _, b := range faults.All() {
		if !byBug[b] {
			t.Errorf("no demo for bug %s", b)
		}
	}
	real := 0
	for _, d := range demos {
		if d.Real {
			real++
		}
	}
	if real != 5 {
		t.Errorf("%d real-bug demos, want the paper's 5", real)
	}
}

func TestEveryBugDetected(t *testing.T) {
	for _, r := range DetectAll() {
		if r.DriveErr != nil {
			t.Errorf("%s: scenario error: %v", r.Demo.Bug, r.DriveErr)
			continue
		}
		if !r.Detected {
			t.Errorf("%s: oracle raised no alarm", r.Demo.Bug)
		}
	}
}

func TestFixedBuildStaysClean(t *testing.T) {
	// Running every scenario WITHOUT its bug injected must stay
	// silent: the demos discriminate, they don't false-positive.
	for _, demo := range Demos() {
		d := demo
		d.Bug = "" // no injection
		r := Detect(d)
		if r.DriveErr != nil {
			t.Errorf("%s: scenario error on fixed build: %v", demo.Bug, r.DriveErr)
		}
		if r.Detected {
			t.Errorf("%s: false alarm on fixed build: %v", demo.Bug, r.Alarms)
		}
	}
}

// TestUnshareSkipTLBIReportsStaleTLB: the skipped break-before-make
// TLBI is caught by the TLB coherence check itself, as a stale-tlb
// alarm, and not only by some later symptom.
func TestUnshareSkipTLBIReportsStaleTLB(t *testing.T) {
	for _, d := range Demos() {
		if d.Bug != faults.BugUnshareSkipTLBI {
			continue
		}
		r := Detect(d)
		if r.DriveErr != nil {
			t.Fatalf("scenario error: %v", r.DriveErr)
		}
		for _, a := range r.Alarms {
			if a.Kind == ghost.FailStaleTLB {
				return
			}
		}
		t.Fatalf("no stale-tlb alarm among %v", r.Alarms)
	}
	t.Fatal("no demo for unshare-skip-tlbi")
}
