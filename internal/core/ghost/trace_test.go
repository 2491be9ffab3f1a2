package ghost

import (
	"bytes"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
)

// traceScenario drives a mixed workload and returns the trace.
func traceScenario(t *testing.T, s *sys) *Trace {
	t.Helper()
	tr := s.rec.RecordTrace()
	pfn := s.hostPFN(1)
	if r := s.hvc(t, 0, hyp.HCHostShareHyp, uint64(pfn)); r != 0 {
		t.Fatal("share failed")
	}
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(pfn)) // EPERM path
	if r := s.hvc(t, 1, hyp.HCHostUnshareHyp, uint64(pfn)); r != 0 {
		t.Fatal("unshare failed")
	}
	s.touch(t, 0, arch.IPA(s.hostPFN(5).Phys()), true)
	if r := s.hvc(t, 0, hyp.HCHostShareHypRange, uint64(s.hostPFN(10)), 3); r != 0 {
		t.Fatal("share range failed")
	}
	don := hyp.InitVMDonation(1)
	h := hyp.Handle(s.hvc(t, 0, hyp.HCInitVM, 1, uint64(s.hostPFN(100)), don))
	if h < hyp.HandleOffset {
		t.Fatal("init_vm failed")
	}
	s.hvc(t, 0, hyp.HCInitVCPU, uint64(h), 0)
	s.hvc(t, 0, hyp.HCVCPULoad, uint64(h), 0)
	s.hvc(t, 0, hyp.HCVCPURun)
	s.hvc(t, 0, hyp.HCVCPUPut)
	return tr
}

func TestTraceReplayClean(t *testing.T) {
	s := newSys(t)
	tr := traceScenario(t, s)
	s.mustClean(t)
	if len(tr.Events) < 10 {
		t.Fatalf("trace has %d events", len(tr.Events))
	}
	if fails := Replay(tr); len(fails) != 0 {
		t.Errorf("offline replay disagreed with the live oracle: %v", fails)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	s := newSys(t)
	tr := traceScenario(t, s)

	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip: %d -> %d events", len(tr.Events), len(back.Events))
	}
	// The deserialised trace replays clean too: serialisation is
	// faithful enough for the spec.
	if fails := Replay(back); len(fails) != 0 {
		t.Errorf("replay after round trip: %v", fails)
	}
	// Spot-check a mapping survived.
	found := false
	for _, ev := range back.Events {
		if ev.Post.Host.Present && !ev.Post.Host.Shared.IsEmpty() {
			found = true
		}
	}
	if !found {
		t.Error("no shared mapping survived serialisation")
	}
}

func TestTraceReplayDetectsTampering(t *testing.T) {
	s := newSys(t)
	tr := traceScenario(t, s)
	// Corrupt the recorded post of the first successful share: claim
	// the hypervisor mapped a different physical page.
	tampered := -1
	for i, ev := range tr.Events {
		if ev.Call.Reason == arch.ExitHVC && ev.Call.HC(ev.Pre) == hyp.HCHostShareHyp &&
			hyp.Errno(ev.Call.Ret) == hyp.OK {
			ml := ev.Post.Pkvm.PGT.Mapping.Maplets()
			if len(ml) == 0 {
				continue
			}
			bad := ml[len(ml)-1]
			ev.Post.Pkvm.PGT.Mapping.Set(bad.VA, 1, Mapped(bad.Target.Phys+arch.PageSize, bad.Target.Attrs))
			tampered = i
			break
		}
	}
	if tampered < 0 {
		t.Fatal("no event to tamper with")
	}
	fails := Replay(tr)
	hit := false
	for _, f := range fails {
		if f.Seq == tampered {
			hit = true
		}
	}
	if !hit {
		t.Errorf("tampered event %d not flagged; failures: %v", tampered, fails)
	}
}

func TestTraceReplayBuggyRun(t *testing.T) {
	// A trace captured from a buggy hypervisor replays with the same
	// verdicts offline.
	s := newSys(t, faults.BugShareWrongPerms)
	tr := s.rec.RecordTrace()
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))
	live := len(s.rec.Failures())
	if live == 0 {
		t.Fatal("live oracle missed the bug")
	}
	if fails := Replay(tr); len(fails) == 0 {
		t.Error("offline replay missed what the live oracle caught")
	}
}

func TestMappingJSON(t *testing.T) {
	var m Mapping
	m.Set(0x1000, 2, Mapped(0x4000_0000, arch.Attrs{Perms: arch.PermRW, State: arch.StateSharedOwned}))
	m.Set(0x5000, 1, Annotated(7))
	b, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Mapping
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if !EqualMappings(m, back) {
		t.Errorf("round trip: %v -> %v", m, back)
	}
	// Traces saved before Target's fields were reordered list its keys
	// Kind first; keys are matched by name, so they still load.
	var old, want Mapping
	want.Set(0x5000, 1, Annotated(7))
	if err := old.UnmarshalJSON([]byte(`[{"VA":20480,"NrPages":1,` +
		`"Target":{"Kind":1,"Phys":0,"Attrs":{"Perms":0,"Mem":0,"State":0},"Owner":7}}]`)); err != nil {
		t.Fatal(err)
	}
	if !EqualMappings(old, want) {
		t.Errorf("old key order: got %v, want %v", old, want)
	}
	// Corrupt input is rejected.
	if err := back.UnmarshalJSON([]byte(`[{"VA":0,"NrPages":0}]`)); err == nil {
		t.Error("empty maplet accepted")
	}
	if err := back.UnmarshalJSON([]byte(`[{"VA":4096,"NrPages":2},{"VA":4096,"NrPages":1}]`)); err == nil {
		t.Error("overlapping maplets accepted")
	}
}
