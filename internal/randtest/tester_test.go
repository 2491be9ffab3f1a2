package randtest

import (
	"testing"

	"ghostspec/internal/core/ghost"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
)

func newTester(t *testing.T, seed int64, guided bool, bugs ...faults.Bug) *Tester {
	t.Helper()
	hv, err := hyp.New(hyp.Config{Inj: faults.NewInjector(bugs...)})
	if err != nil {
		t.Fatal(err)
	}
	rec := ghost.Attach(hv)
	return New(proxy.New(hv), rec, seed, guided)
}

func TestGuidedCampaignClean(t *testing.T) {
	tr := newTester(t, 1, true)
	tr.Run(2000)
	s := tr.Stats()
	if s.Calls < 500 {
		t.Errorf("only %d calls in 2000 steps", s.Calls)
	}
	// The guided generator makes real progress through the state
	// machine and never crashes the host.
	if s.VMsCreated == 0 || s.VMsDestroyed == 0 {
		t.Errorf("no VM lifecycle progress: %v", s)
	}
	if s.OKs == 0 || s.Errnos == 0 {
		t.Errorf("wanted both success and error outcomes: %v", s)
	}
	if s.HostCrashes != 0 {
		t.Errorf("guided campaign crashed the host %d times", s.HostCrashes)
	}
	if s.HypPanics != 0 {
		t.Errorf("fixed hypervisor panicked %d times", s.HypPanics)
	}
	// And the oracle stayed silent on the fixed hypervisor.
	for _, f := range tr.Rec.Failures() {
		t.Errorf("oracle alarm during clean campaign: %v", f)
	}
}

func TestGuidedCampaignDeterministic(t *testing.T) {
	a := newTester(t, 42, true)
	a.Run(500)
	b := newTester(t, 42, true)
	b.Run(500)
	sa, sb := a.Stats(), b.Stats()
	if sa.String() != sb.String() {
		t.Errorf("same seed diverged:\n%v\n%v", sa, sb)
	}
}

func TestUnguidedBaseline(t *testing.T) {
	tr := newTester(t, 1, false)
	tr.Run(2000)
	s := tr.Stats()
	// The unguided baseline mostly bounces off the API with errors
	// and rarely builds VMs — the ablation result.
	if s.Calls == 0 {
		t.Fatal("no calls issued")
	}
	if s.VMsDestroyed > s.VMsCreated {
		t.Errorf("inconsistent VM accounting: %v", s)
	}
	if s.Errnos < s.OKs {
		t.Errorf("unguided run should be mostly errors: %v", s)
	}
}

func TestGuidedFindsInjectedBug(t *testing.T) {
	// A guided campaign against a buggy hypervisor must raise oracle
	// alarms (here: wrong perms on every successful share).
	tr := newTester(t, 7, true, faults.BugShareWrongPerms)
	tr.Run(500)
	if len(tr.Rec.Failures()) == 0 {
		t.Error("campaign over buggy hypervisor raised no alarms")
	}
}

func TestGuidedSurvivesHypPanicBug(t *testing.T) {
	// With the spurious-fault panic injected, concurrent-ish faulting
	// may or may not trip it in a single-threaded campaign; the
	// tester must at least keep running and count any panics.
	tr := newTester(t, 3, true, faults.BugHostFaultRetry)
	tr.Run(1000)
	// No assertion on panic count — just robustness of the harness.
}

// TestRandomTesterFindsSpecBug: the paper's random testing "found 9
// errors in the specification itself". With the historical spec bug of
// this reproduction re-injected, a short guided campaign against the
// FIXED hypervisor rediscovers it.
func TestRandomTesterFindsSpecBug(t *testing.T) {
	ghost.SetSpecFault(ghost.SpecBugReclaimForgetShared, true)
	defer ghost.ClearSpecFaults()

	tr := newTester(t, 8, true)
	tr.Run(6000)
	if len(tr.Rec.Failures()) == 0 {
		t.Error("random campaign failed to rediscover the historical spec bug")
	}
}

func TestModelCrashPrediction(t *testing.T) {
	m := newModel(2)
	m.setPage(100, pageHostOwned)
	m.setPage(101, pageDonatedHyp)
	m.setPage(102, pageGuestOwned)
	m.setPage(103, pageSharedHyp)
	if m.wouldCrashHost(100) || m.wouldCrashHost(103) {
		t.Error("host-accessible pages predicted to crash")
	}
	if !m.wouldCrashHost(101) || !m.wouldCrashHost(102) {
		t.Error("donated/guest pages not predicted to crash")
	}
	if m.wouldCrashHost(999) {
		t.Error("unknown page predicted to crash")
	}
}
