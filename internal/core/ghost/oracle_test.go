package ghost

import (
	"strings"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
)

// sys is a booted system with the oracle attached.
type sys struct {
	hv  *hyp.Hypervisor
	rec *Recorder
}

func newSys(t *testing.T, bugs ...faults.Bug) *sys {
	t.Helper()
	hv, err := hyp.New(hyp.Config{Inj: faults.NewInjector(bugs...)})
	if err != nil {
		t.Fatal(err)
	}
	return &sys{hv: hv, rec: Attach(hv)}
}

func (s *sys) hvc(t *testing.T, cpu int, id hyp.HC, args ...uint64) int64 {
	t.Helper()
	regs := &s.hv.CPUs[cpu].HostRegs
	regs[0] = uint64(id)
	for i := range regs[1:] {
		regs[i+1] = 0
	}
	for i, a := range args {
		regs[i+1] = a
	}
	if err := s.hv.HandleTrap(cpu, arch.ExitHVC); err != nil {
		t.Logf("trap: %v", err)
	}
	return int64(regs[1])
}

func (s *sys) touch(t *testing.T, cpu int, ipa arch.IPA, write bool) {
	t.Helper()
	acc := arch.Access{Write: write}
	if _, fault := arch.Walk(s.hv.Mem, s.hv.HostPGTRoot(), uint64(ipa), acc); fault == nil {
		return
	}
	s.hv.CPUs[cpu].Fault = arch.FaultInfo{Addr: ipa, Write: write}
	if err := s.hv.HandleTrap(cpu, arch.ExitMemAbort); err != nil {
		t.Logf("abort trap: %v", err)
	}
}

func (s *sys) hostPFN(n uint64) arch.PFN {
	return arch.PhysToPFN(s.hv.HostMemStart()) + arch.PFN(n)
}

func (s *sys) mustClean(t *testing.T) {
	t.Helper()
	for _, f := range s.rec.Failures() {
		t.Errorf("unexpected oracle alarm: %v", f)
	}
}

func (s *sys) mustAlarm(t *testing.T, kinds ...FailureKind) {
	t.Helper()
	fs := s.rec.Failures()
	if len(fs) == 0 {
		t.Fatal("oracle raised no alarm")
	}
	want := map[FailureKind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	for _, f := range fs {
		if want[f.Kind] {
			return
		}
	}
	t.Errorf("no alarm of kind %v; got %v", kinds, fs)
}

// fullScenario drives every hypercall through a realistic lifecycle.
func fullScenario(t *testing.T, s *sys) {
	t.Helper()
	// Host touches memory (demand mapping, block and page).
	s.touch(t, 0, arch.IPA(s.hostPFN(0).Phys()), true)
	s.touch(t, 1, arch.IPA(s.hostPFN(600).Phys()), false)
	s.touch(t, 0, arch.IPA(hyp.UARTPhys), true) // MMIO
	// Fault on hypervisor memory: injected back.
	s.touch(t, 2, arch.IPA(s.hv.Globals().CarveStart), false)

	// Shares.
	if r := s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1))); r != 0 {
		t.Fatalf("share: %v", hyp.Errno(r))
	}
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1))) // double share: EPERM path
	if r := s.hvc(t, 1, hyp.HCHostUnshareHyp, uint64(s.hostPFN(1))); r != 0 {
		t.Fatalf("unshare: %v", hyp.Errno(r))
	}
	// Donation.
	if r := s.hvc(t, 0, hyp.HCHostDonateHyp, uint64(s.hostPFN(8)), 4); r != 0 {
		t.Fatalf("donate: %v", hyp.Errno(r))
	}

	// VM lifecycle.
	don := hyp.InitVMDonation(1)
	h := hyp.Handle(s.hvc(t, 0, hyp.HCInitVM, 1, uint64(s.hostPFN(100)), don))
	if h < hyp.HandleOffset {
		t.Fatalf("init_vm: %v", hyp.Errno(int64(h)))
	}
	if r := s.hvc(t, 0, hyp.HCInitVCPU, uint64(h), 0); r != 0 {
		t.Fatalf("init_vcpu: %v", hyp.Errno(r))
	}
	// Topup.
	pfns := []arch.PFN{s.hostPFN(200), s.hostPFN(201), s.hostPFN(202), s.hostPFN(203)}
	for i, pfn := range pfns {
		next := uint64(0)
		if i+1 < len(pfns) {
			next = uint64(pfns[i+1].Phys())
		}
		s.hv.Mem.Write64(pfn.Phys(), next)
	}
	if r := s.hvc(t, 0, hyp.HCTopupVCPUMemcache, uint64(h), 0, uint64(pfns[0].Phys()), 4); r != 0 {
		t.Fatalf("topup: %v", hyp.Errno(r))
	}
	// Load, map, run guest ops, put.
	if r := s.hvc(t, 0, hyp.HCVCPULoad, uint64(h), 0); r != 0 {
		t.Fatalf("load: %v", hyp.Errno(r))
	}
	if r := s.hvc(t, 0, hyp.HCHostMapGuest, uint64(s.hostPFN(300)), 16); r != 0 {
		t.Fatalf("map_guest: %v", hyp.Errno(r))
	}
	ipa := arch.IPA(16 << arch.PageShift)
	s.hv.QueueGuestOp(h, 0, hyp.GuestOp{Kind: hyp.GuestAccess, IPA: ipa, Write: true, Value: 0x1234})
	s.hv.QueueGuestOp(h, 0, hyp.GuestOp{Kind: hyp.GuestAccess, IPA: ipa})
	s.hv.QueueGuestOp(h, 0, hyp.GuestOp{Kind: hyp.GuestAccess, IPA: 99 << arch.PageShift}) // faults
	s.hv.QueueGuestOp(h, 0, hyp.GuestOp{Kind: hyp.GuestShareHost, IPA: ipa})
	s.hv.QueueGuestOp(h, 0, hyp.GuestOp{Kind: hyp.GuestUnshareHost, IPA: ipa})
	for i := 0; i < 6; i++ { // one extra: quiescent yield
		s.hvc(t, 0, hyp.HCVCPURun)
	}
	if r := s.hvc(t, 0, hyp.HCVCPUPut); r != 0 {
		t.Fatalf("put: %v", hyp.Errno(r))
	}
	// Teardown and reclaim.
	if r := s.hvc(t, 1, hyp.HCTeardownVM, uint64(h)); r != 0 {
		t.Fatalf("teardown: %v", hyp.Errno(r))
	}
	st := s.rec // drain the reclaim set recorded by the oracle
	_ = st
	for _, pfn := range reclaimSet(s) {
		if r := s.hvc(t, 0, hyp.HCHostReclaimPage, uint64(pfn)); r != 0 {
			t.Fatalf("reclaim %#x: %v", uint64(pfn), hyp.Errno(r))
		}
	}
	// Error paths.
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(arch.PhysToPFN(hyp.UARTPhys))) // EINVAL
	s.hvc(t, 0, hyp.HCVCPULoad, 0x9999, 0)                                // ENOENT
	s.hvc(t, 0, hyp.HC(0x999))                                            // ENOSYS
}

// reclaimSet drains the hypervisor's reclaim set via a throwaway
// teardown-time snapshot (reading it through a clean vms-lock cycle).
func reclaimSet(s *sys) []arch.PFN {
	// Issue a failing reclaim to force a recording cycle, then read
	// the shared ghost copy.
	s.hv.CPUs[3].HostRegs[0] = uint64(hyp.HCHostReclaimPage)
	s.hv.CPUs[3].HostRegs[1] = 0 // pfn 0: never reclaimable
	_ = s.hv.HandleTrap(3, arch.ExitHVC)
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	return s.rec.shared.VMs.Reclaim.Sorted()
}

// TestOracleCleanRun: the full scenario on the fixed hypervisor raises
// no alarms — the specification and implementation agree.
func TestOracleCleanRun(t *testing.T) {
	s := newSys(t)
	fullScenario(t, s)
	s.mustClean(t)
	st := s.rec.Stats()
	if st.Checks < 20 || st.Passed != st.Checks {
		t.Errorf("stats: %+v", st)
	}
}

// TestOracleDetectsEveryInjectedBug is the §5 synthetic-bug-testing
// experiment: every injectable defect must raise an oracle alarm when
// the scenario exercises its code path.
func TestOracleDetectsEveryInjectedBug(t *testing.T) {
	cases := []struct {
		bug   faults.Bug
		kinds []FailureKind
		drive func(t *testing.T, s *sys)
	}{
		{faults.BugShareSkipStateCheck, []FailureKind{FailSpecMismatch}, func(t *testing.T, s *sys) {
			// Share a page already shared: the skipped check lets it
			// succeed where the spec says EPERM.
			s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))
			s.rec.ResetFailures()
			s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))
		}},
		{faults.BugShareWrongPerms, []FailureKind{FailSpecMismatch}, func(t *testing.T, s *sys) {
			s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))
		}},
		{faults.BugWrongReturnValue, []FailureKind{FailSpecMismatch}, func(t *testing.T, s *sys) {
			s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))
			s.rec.ResetFailures()
			s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1))) // EPERM path reports OK
		}},
		{faults.BugUnshareLeaveMapping, []FailureKind{FailSpecMismatch}, func(t *testing.T, s *sys) {
			s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))
			s.rec.ResetFailures()
			s.hvc(t, 0, hyp.HCHostUnshareHyp, uint64(s.hostPFN(1)))
		}},
		{faults.BugDonateKeepHostMapping, []FailureKind{FailSpecMismatch}, func(t *testing.T, s *sys) {
			s.hvc(t, 0, hyp.HCHostDonateHyp, uint64(s.hostPFN(8)), 2)
		}},
		{faults.BugMapDemandWrongState, []FailureKind{FailSpecMismatch}, func(t *testing.T, s *sys) {
			s.touch(t, 0, arch.IPA(s.hostPFN(0).Phys()), true)
		}},
		{faults.BugVCPULoadRace, []FailureKind{FailSpecMismatch}, func(t *testing.T, s *sys) {
			don := hyp.InitVMDonation(2)
			h := hyp.Handle(s.hvc(t, 0, hyp.HCInitVM, 2, uint64(s.hostPFN(100)), don))
			s.rec.ResetFailures()
			s.hvc(t, 0, hyp.HCVCPULoad, uint64(h), 1) // uninitialised vcpu
		}},
		{faults.BugMemcacheSize, []FailureKind{FailSpecMismatch}, func(t *testing.T, s *sys) {
			h := setupVMForOracle(t, s)
			s.rec.ResetFailures()
			s.hvc(t, 0, hyp.HCTopupVCPUMemcache, uint64(h), 0, uint64(s.hostPFN(200).Phys()), 0x10000)
		}},
		{faults.BugMemcacheAlignment, []FailureKind{FailSpecMismatch, FailNonInterference}, func(t *testing.T, s *sys) {
			h := setupVMForOracle(t, s)
			s.rec.ResetFailures()
			bad := uint64(s.hostPFN(200).Phys()) + 0x800
			s.hv.Mem.Write64(arch.PhysAddr(bad), 0)
			s.hvc(t, 0, hyp.HCTopupVCPUMemcache, uint64(h), 0, bad, 1)
		}},
		{faults.BugHostFaultRetry, []FailureKind{FailPanic}, func(t *testing.T, s *sys) {
			ipa := arch.IPA(s.hostPFN(0).Phys())
			s.touch(t, 0, ipa, true)
			s.rec.ResetFailures()
			// Spurious re-fault on the now-mapped page.
			s.hv.CPUs[0].Fault = arch.FaultInfo{Addr: ipa, Write: true}
			_ = s.hv.HandleTrap(0, arch.ExitMemAbort)
		}},
		{faults.BugReclaimSkipOwnerClear, []FailureKind{FailSpecMismatch}, func(t *testing.T, s *sys) {
			h := setupVMForOracle(t, s)
			if r := s.hvc(t, 0, hyp.HCTeardownVM, uint64(h)); r != 0 {
				t.Fatalf("teardown: %v", hyp.Errno(r))
			}
			pfns := reclaimSet(s)
			s.rec.ResetFailures()
			s.hvc(t, 0, hyp.HCHostReclaimPage, uint64(pfns[0]))
		}},
	}

	for _, c := range cases {
		t.Run(string(c.bug), func(t *testing.T) {
			s := newSys(t, c.bug)
			c.drive(t, s)
			s.mustAlarm(t, c.kinds...)
		})
	}
}

// TestOracleDetectsLinearMapOverlap: bug 5 is a boot-time defect,
// caught by the init layout check on large-memory devices.
func TestOracleDetectsLinearMapOverlap(t *testing.T) {
	big := arch.MemLayout{RAMStart: 1 << 30, RAMSize: 4 << 30, MMIOSize: 16 << 20}
	hv, err := hyp.New(hyp.Config{Layout: big, Inj: faults.NewInjector(faults.BugLinearMapOverlap)})
	if err != nil {
		t.Fatal(err)
	}
	rec := Attach(hv)
	found := false
	for _, f := range rec.Failures() {
		if f.Kind == FailInitLayout {
			found = true
		}
	}
	if !found {
		t.Error("boot with linear-map overlap raised no init-layout alarm")
	}
}

func setupVMForOracle(t *testing.T, s *sys) hyp.Handle {
	t.Helper()
	don := hyp.InitVMDonation(1)
	h := hyp.Handle(s.hvc(t, 0, hyp.HCInitVM, 1, uint64(s.hostPFN(100)), don))
	if h < hyp.HandleOffset {
		t.Fatalf("init_vm: %v", hyp.Errno(int64(h)))
	}
	if r := s.hvc(t, 0, hyp.HCInitVCPU, uint64(h), 0); r != 0 {
		t.Fatalf("init_vcpu: %v", hyp.Errno(r))
	}
	return h
}

// TestOracleGuestProgram: a real (interpreted) guest program — loads,
// stores, faults with restart, guest hypercalls — under the oracle.
// Guest-private register churn is environment; the hypervisor-visible
// transitions stay fully checked.
func TestOracleGuestProgram(t *testing.T) {
	s := newSys(t)
	h := setupVMForOracle(t, s)
	pfns := []arch.PFN{s.hostPFN(200), s.hostPFN(201), s.hostPFN(202), s.hostPFN(203)}
	for i, pfn := range pfns {
		next := uint64(0)
		if i+1 < len(pfns) {
			next = uint64(pfns[i+1].Phys())
		}
		s.hv.Mem.Write64(pfn.Phys(), next)
	}
	if r := s.hvc(t, 0, hyp.HCTopupVCPUMemcache, uint64(h), 0, uint64(pfns[0].Phys()), 4); r != 0 {
		t.Fatalf("topup: %v", hyp.Errno(r))
	}

	page := uint64(16 << arch.PageShift)
	hole := uint64(40 << arch.PageShift)
	prog := []hyp.Insn{
		{Op: hyp.OpMovi, Dst: 1, Imm: 123},
		{Op: hyp.OpMovi, Dst: 3, Imm: page},
		{Op: hyp.OpStore, Dst: 1, Src: 3}, // faults until the host maps gfn 16
		{Op: hyp.OpShareHost, Src: 3},
		{Op: hyp.OpMovi, Dst: 4, Imm: hole},
		{Op: hyp.OpLoad, Dst: 2, Src: 4}, // faults; host declines, guest stuck here
		{Op: hyp.OpHalt},
	}
	if !s.hv.LoadGuestProgram(h, 0, prog) {
		t.Fatal("program load failed")
	}
	if r := s.hvc(t, 0, hyp.HCVCPULoad, uint64(h), 0); r != 0 {
		t.Fatalf("load: %v", hyp.Errno(r))
	}

	// Run 1: store faults at gfn 16.
	if r := s.hvc(t, 0, hyp.HCVCPURun); r != hyp.RunExitMemAbort {
		t.Fatalf("run1 = %d", r)
	}
	// Host services it.
	if r := s.hvc(t, 0, hyp.HCHostMapGuest, uint64(s.hostPFN(300)), 16); r != 0 {
		t.Fatalf("map_guest: %v", hyp.Errno(r))
	}
	// Run 2: store retries and succeeds, then the share hypercall
	// exits.
	if r := s.hvc(t, 0, hyp.HCVCPURun); r != hyp.RunExitYield {
		t.Fatalf("run2 = %d", r)
	}
	if e := hyp.ErrnoFromReg(s.hv.CPUs[0].GuestRegs[0]); e != hyp.OK {
		t.Fatalf("guest share errno: %v", e)
	}
	// Run 3: the load of an unmapped gfn faults; the host does not
	// map it; further runs keep faulting there (restart semantics).
	for i := 0; i < 2; i++ {
		if r := s.hvc(t, 0, hyp.HCVCPURun); r != hyp.RunExitMemAbort {
			t.Fatalf("run3+%d = %d", i, r)
		}
	}
	s.mustClean(t)
	st := s.rec.Stats()
	if st.Passed != st.Checks {
		t.Errorf("stats: %+v", st)
	}
}

// TestOracleBigMemoryDemandBlocks: on a 4GB device, first touch maps
// whole 1GB blocks; the loose host specification absorbs them without
// any spec change — they are legal and invisible, exactly §3.1.
func TestOracleBigMemoryDemandBlocks(t *testing.T) {
	big := arch.MemLayout{RAMStart: 1 << 30, RAMSize: 4 << 30, MMIOSize: 16 << 20}
	hv, err := hyp.New(hyp.Config{Layout: big})
	if err != nil {
		t.Fatal(err)
	}
	rec := Attach(hv)
	s := &sys{hv: hv, rec: rec}

	s.touch(t, 0, arch.IPA(3<<30), true) // 1GB block
	s.touch(t, 1, arch.IPA(uint64(hv.HostMemStart())), true)
	pfn := arch.PhysToPFN(3<<30) + 7
	if r := s.hvc(t, 0, hyp.HCHostShareHyp, uint64(pfn)); r != 0 {
		t.Fatalf("share: %v", hyp.Errno(r))
	}
	if r := s.hvc(t, 0, hyp.HCHostUnshareHyp, uint64(pfn)); r != 0 {
		t.Fatalf("unshare: %v", hyp.Errno(r))
	}
	s.mustClean(t)

	// The ghost host state stayed tiny despite gigabytes mapped:
	// only the carve-out annotation, no shared pages.
	host, herr := AbstractHost(hv)
	if herr != nil {
		t.Fatal(herr)
	}
	if !host.Shared.IsEmpty() {
		t.Errorf("shared not empty: %v", host.Shared)
	}
	if host.Annot.NrMaplets() > 2 {
		t.Errorf("annot fragmented: %v", host.Annot)
	}
}

// TestOracleNonInterference: direct corruption of a protected
// component between hypercalls trips the §4.4 check on the next lock
// acquisition.
func TestOracleNonInterference(t *testing.T) {
	s := newSys(t)
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))
	s.mustClean(t)
	// Corrupt the host table behind the hypervisor's back.
	hostForceMap(t, s.hv, uint64(s.hostPFN(50).Phys()), s.hostPFN(50).Phys(),
		arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateSharedOwned})
	// Next hypercall that takes the host lock must notice.
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(2)))
	s.mustAlarm(t, FailNonInterference)
}

// TestLockHookAlarmAttribution: an alarm raised in a lock hook names
// the CPU whose trap raised it and that trap's call, and carries that
// CPU's flight record, not CPU 0's.
func TestLockHookAlarmAttribution(t *testing.T) {
	s := newSys(t)
	s.hvc(t, 3, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))
	s.hvc(t, 0, hyp.HCHostUnshareHyp, uint64(s.hostPFN(2))) // -EPERM, clean
	s.mustClean(t)
	hostForceMap(t, s.hv, uint64(s.hostPFN(50).Phys()), s.hostPFN(50).Phys(),
		arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateSharedOwned})
	s.hvc(t, 3, hyp.HCHostShareHyp, uint64(s.hostPFN(2)))

	var ni []Failure
	for _, f := range s.rec.Failures() {
		if f.Kind == FailNonInterference {
			ni = append(ni, f)
		}
	}
	if len(ni) != 1 {
		t.Fatalf("%d non-interference alarms, want 1: %v", len(ni), s.rec.Failures())
	}
	f := ni[0]
	if f.CPU != 3 || f.Call.CPU != 3 || f.Call.Reason != arch.ExitHVC {
		t.Errorf("alarm attributed to cpu %d, call %q; want cpu 3's hvc", f.CPU, f.Call.String())
	}
	if len(f.History) == 0 {
		t.Fatal("alarm carries no flight record")
	}
	for _, ev := range f.History {
		if ev.CPU != 3 {
			t.Errorf("flight record holds a cpu %d trap: %+v", ev.CPU, ev)
		}
	}
	if last := f.History[len(f.History)-1]; last.Name != "host_share_hyp" {
		t.Errorf("newest flight-record entry is %q, want cpu 3's host_share_hyp", last.Name)
	}
}

// TestOracleDiffOutput: a failing check produces the paper-style
// +/- page diff.
func TestOracleDiffOutput(t *testing.T) {
	s := newSys(t, faults.BugShareWrongPerms)
	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))
	fs := s.rec.Failures()
	if len(fs) == 0 {
		t.Fatal("no failure")
	}
	if !strings.Contains(fs[0].Detail, "pkvm.pgt") {
		t.Errorf("diff does not name the component:\n%s", fs[0].Detail)
	}
	if !strings.Contains(fs[0].Detail, "+") || !strings.Contains(fs[0].Detail, "-") {
		t.Errorf("diff lacks +/- lines:\n%s", fs[0].Detail)
	}
}

// TestFormatStateDiff: the share diff reads like the paper's example —
// one new host.shared page, one new pkvm page, changed registers.
func TestFormatStateDiff(t *testing.T) {
	s := newSys(t)
	var pre, post *State
	done := false
	s.rec.OnFailure = func(Failure) {}
	// Capture pre/post by running the share and reading the recorder's
	// last recording via a custom scenario: replicate by hand instead.
	pre = NewState()
	pre.Globals = AbstractGlobals(s.hv)
	pre.Host, _ = AbstractHost(s.hv)
	pre.Pkvm = AbstractHyp(s.hv)
	l := AbstractLocal(s.hv, 0)
	pre.Locals[0] = &l

	s.hvc(t, 0, hyp.HCHostShareHyp, uint64(s.hostPFN(1)))

	post = NewState()
	post.Host, _ = AbstractHost(s.hv)
	post.Pkvm = AbstractHyp(s.hv)
	l2 := AbstractLocal(s.hv, 0)
	post.Locals[0] = &l2
	done = true
	_ = done

	out := FormatStateDiff(pre, post)
	if !strings.Contains(out, "host.shared") || !strings.Contains(out, "pkvm.pgt") {
		t.Errorf("diff missing components:\n%s", out)
	}
}
