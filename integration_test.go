package ghostspec

// Cross-package integration tests: whole-stack flows through the
// public seams — boot, oracle, coverage, suite, random testing, bug
// demos — the way the binaries compose them.

import (
	"testing"
	"time"

	"ghostspec/internal/arch"
	"ghostspec/internal/bugdemo"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/coverage"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/suite"
)

// TestFullStackScenario is the pkvm-sim workload as a test: boot,
// oracle, coverage tracker, two VMs of guest traffic, teardown, all
// checks green.
func TestFullStackScenario(t *testing.T) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := ghost.Attach(hv)
	cov := coverage.Wrap(hv, rec)
	hv.SetInstrumentation(cov)
	d := proxy.New(hv)

	for v := 0; v < 2; v++ {
		h, donated, err := d.InitVM(v, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.InitVCPU(v, h, 0); err != nil {
			t.Fatal(err)
		}
		mc, err := d.Topup(v, h, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.VCPULoad(v, h, 0); err != nil {
			t.Fatal(err)
		}
		gp, _ := d.AllocPage()
		if err := d.MapGuest(v, gp, 16); err != nil {
			t.Fatal(err)
		}
		d.QueueGuestOp(h, 0, hyp.GuestOp{Kind: hyp.GuestShareHost, IPA: 16 << arch.PageShift})
		if _, err := d.VCPURun(v); err != nil {
			t.Fatal(err)
		}
		d.QueueGuestOp(h, 0, hyp.GuestOp{Kind: hyp.GuestUnshareHost, IPA: 16 << arch.PageShift})
		if _, err := d.VCPURun(v); err != nil {
			t.Fatal(err)
		}
		if err := d.VCPUPut(v); err != nil {
			t.Fatal(err)
		}
		if err := d.TeardownVM(v, h); err != nil {
			t.Fatal(err)
		}
		for _, set := range [][]arch.PFN{donated, mc, {gp}} {
			for _, pfn := range set {
				if err := d.ReclaimPage(v, pfn); err != nil {
					t.Fatalf("reclaim %#x: %v", uint64(pfn), err)
				}
			}
		}
	}

	if fs := rec.Failures(); len(fs) != 0 {
		t.Fatalf("oracle alarms: %v", fs)
	}
	st := rec.Stats()
	if st.Passed != st.Checks || st.Checks == 0 {
		t.Errorf("oracle stats: %+v", st)
	}
	r := cov.Snapshot()
	if r.Traps != st.Traps {
		t.Errorf("tracker saw %d traps, recorder %d", r.Traps, st.Traps)
	}
}

// TestSuiteTimesGhostOverhead reproduces the E7 direction: the ghost
// build must be measurably slower (and both must pass). One wall-clock
// sample per side is noise under parallel package load, so it compares
// the fastest of 5 alternating oracle-off/on passes.
func TestSuiteTimesGhostOverhead(t *testing.T) {
	var off, on time.Duration
	for i := 0; i < 5; i++ {
		for _, withGhost := range []bool{false, true} {
			sum := suite.Summarise(suite.Run(suite.Options{Ghost: withGhost}))
			if sum.Failed != 0 {
				t.Fatalf("suite failed (ghost=%v): %+v", withGhost, sum)
			}
			best := &off
			if withGhost {
				best = &on
			}
			if i == 0 || sum.TotalDuration < *best {
				*best = sum.TotalDuration
			}
		}
	}
	if on <= off {
		t.Errorf("ghost suite (min %v) not slower than bare suite (min %v): instrumentation inert?", on, off)
	}
}

// TestEveryBugCaughtEndToEnd is E4+E5 as a test.
func TestEveryBugCaughtEndToEnd(t *testing.T) {
	results := bugdemo.DetectAll()
	if len(results) != len(faults.All()) {
		t.Fatalf("%d demos for %d bugs", len(results), len(faults.All()))
	}
	for _, r := range results {
		if r.DriveErr != nil {
			t.Errorf("%s: %v", r.Demo.Bug, r.DriveErr)
		}
		if !r.Detected {
			t.Errorf("%s: missed", r.Demo.Bug)
		}
	}
}

// TestRandomCampaignWithCoverage runs a guided campaign under both the
// oracle and the coverage tracker and sanity-checks the combination.
func TestRandomCampaignWithCoverage(t *testing.T) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := ghost.Attach(hv)
	cov := coverage.Wrap(hv, rec)
	hv.SetInstrumentation(cov)

	tr := randtest.New(proxy.New(hv), rec, 5, true)
	tr.Run(3000)

	if fs := rec.Failures(); len(fs) != 0 {
		t.Fatalf("alarms: %v", fs)
	}
	s := tr.Stats()
	if s.HostCrashes != 0 || s.VMsCreated == 0 {
		t.Errorf("campaign: %v", s)
	}
	r := cov.Snapshot()
	if coverage.Percent(r.ImplCovered, r.ImplTotal) < 40 {
		t.Errorf("random campaign covered only %d/%d branches", r.ImplCovered, r.ImplTotal)
	}
}

// TestGhostOffIsFree: without the oracle attached, the hypervisor
// runs with the no-op instrumentation — traps work and nothing records.
func TestGhostOffIsFree(t *testing.T) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := proxy.New(hv)
	pfn, _ := d.AllocPage()
	if err := d.ShareHyp(0, pfn); err != nil {
		t.Fatal(err)
	}
	if err := d.UnshareHyp(0, pfn); err != nil {
		t.Fatal(err)
	}
}
