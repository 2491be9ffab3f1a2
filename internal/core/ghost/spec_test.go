package ghost

// White-box tests of the specification functions as pure functions:
// each is driven with hand-constructed ghost pre-states and call data,
// never a live hypervisor — demonstrating the §4.2 property that spec
// functions read only the ghost state and call data.

import (
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
)

// specGlobals builds a plausible set of ghost globals.
func specGlobals() Globals {
	return Globals{Present: true, Globals: hyp.Globals{
		NrCPUs:      4,
		HypVAOffset: hyp.HypVAOffset,
		RAMStart:    1 << 30,
		RAMSize:     256 << 20,
		MMIOSize:    16 << 20,
		CarveStart:  1 << 30,
		CarveSize:   4 << 20,
		UARTPhys:    hyp.UARTPhys,
	}}
}

// prestate builds a pre-state with globals, empty host/pkvm components
// present, and CPU 0 locals holding the given hypercall registers.
func prestate(id hyp.HC, args ...uint64) *State {
	s := NewState()
	s.Globals = specGlobals()
	s.Host = Host{Present: true}
	s.Pkvm = Pkvm{Present: true, PGT: AbstractPgtable{Footprint: PageSet{}}}
	s.VMs = VMs{Present: true, Table: map[hyp.Handle]*VMInfo{}, Reclaim: PageSet{}}
	l := &CPULocal{Present: true}
	l.PerCPU.LoadedVCPU = -1
	l.HostRegs[0] = uint64(id)
	for i, a := range args {
		l.HostRegs[i+1] = a
	}
	s.Locals[0] = l
	return s
}

func callFor(pre *State, ret int64) *CallData {
	return &CallData{CPU: 0, Reason: arch.ExitHVC, Ret: ret}
}

// computePost is ComputePost, failing the test if the specification
// changed the pre-state's VM table. Recorded VMInfos are shared by the
// recorder's pre-states, post-states and shared copy (see VMInfo), so a
// spec function writing one in place, instead of through writableVM,
// would corrupt all of them.
func computePost(t *testing.T, post, pre *State, call *CallData) bool {
	t.Helper()
	saved := pre.VMs.Clone()
	for h, vm := range saved.Table {
		saved.Table[h] = vm.Clone()
	}
	ok := ComputePost(post, pre, call)
	if saved.Present != pre.VMs.Present || !saved.Equal(pre.VMs) {
		t.Errorf("specification changed the pre-state's VM table:\n%s", diffVMs(saved, pre.VMs))
	}
	return ok
}

// ramPFN returns a pfn inside the test globals' RAM, past the carve.
func ramPFN(n uint64) arch.PFN { return arch.PFN((1<<30+8<<20)>>arch.PageShift) + arch.PFN(n) }

func TestSpecShareSuccess(t *testing.T) {
	pfn := ramPFN(0)
	pre := prestate(hyp.HCHostShareHyp, uint64(pfn))
	post := NewState()
	if !computePost(t, post, pre, callFor(pre, 0)) {
		t.Fatal("spec declined")
	}
	// Return registers: x0 cleared, x1 = 0.
	if post.ReadGPR(0, 0) != 0 || post.ReadGPR(0, 1) != 0 {
		t.Errorf("regs: x0=%#x x1=%#x", post.ReadGPR(0, 0), post.ReadGPR(0, 1))
	}
	// Host gains a shared-owned identity maplet.
	tgt, ok := post.Host.Shared.Lookup(uint64(pfn.Phys()))
	if !ok || tgt.Phys != pfn.Phys() || tgt.Attrs.State != arch.StateSharedOwned {
		t.Errorf("host.shared: %+v ok=%v", tgt, ok)
	}
	if tgt.Attrs.Perms != arch.PermRWX || tgt.Attrs.Mem != arch.MemNormal {
		t.Errorf("host attrs: %v", tgt.Attrs)
	}
	// pkvm gains a borrowed RW mapping at the linear address.
	tgt, ok = post.Pkvm.PGT.Mapping.Lookup(uint64(pfn.Phys()) + hyp.HypVAOffset)
	if !ok || tgt.Attrs.State != arch.StateSharedBorrowed || tgt.Attrs.Perms != arch.PermRW {
		t.Errorf("pkvm mapping: %+v ok=%v", tgt, ok)
	}
}

func TestSpecShareErrors(t *testing.T) {
	// Non-memory pfn: EINVAL.
	pre := prestate(hyp.HCHostShareHyp, uint64(arch.PhysToPFN(hyp.UARTPhys)))
	post := NewState()
	computePost(t, post, pre, callFor(pre, int64(hyp.EINVAL)))
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.EINVAL {
		t.Errorf("MMIO share expected EINVAL, spec wrote %v", hyp.ErrnoFromReg(post.ReadGPR(0, 1)))
	}
	if !post.Host.Shared.IsEmpty() {
		t.Error("error path updated host.shared")
	}

	// Page annotated away: EPERM.
	pfn := ramPFN(1)
	pre = prestate(hyp.HCHostShareHyp, uint64(pfn))
	pre.Host.Annot.Set(uint64(pfn.Phys()), 1, Annotated(hyp.IDHyp))
	post = NewState()
	computePost(t, post, pre, callFor(pre, int64(hyp.EPERM)))
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.EPERM {
		t.Error("annotated share not EPERM")
	}

	// Already shared: EPERM.
	pre = prestate(hyp.HCHostShareHyp, uint64(pfn))
	pre.Host.Shared.Set(uint64(pfn.Phys()), 1, Mapped(pfn.Phys(),
		arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateSharedOwned}))
	post = NewState()
	computePost(t, post, pre, callFor(pre, int64(hyp.EPERM)))
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.EPERM {
		t.Error("double share not EPERM")
	}
}

func TestSpecShareLooseNomem(t *testing.T) {
	// A share that would deterministically succeed may still report
	// -ENOMEM (§4.3); the spec then requires an unchanged state.
	pfn := ramPFN(2)
	pre := prestate(hyp.HCHostShareHyp, uint64(pfn))
	post := NewState()
	computePost(t, post, pre, callFor(pre, int64(hyp.ENOMEM)))
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.ENOMEM {
		t.Error("loose ENOMEM not accepted")
	}
	if !post.Host.Shared.IsEmpty() || !post.Pkvm.PGT.Mapping.IsEmpty() {
		t.Error("loose ENOMEM changed state")
	}
	// But a hypercall OUTSIDE the mayNomem set does not get the
	// loophole: vcpu_put reporting ENOMEM computes its deterministic
	// answer instead.
	pre = prestate(hyp.HCVCPUPut)
	post = NewState()
	computePost(t, post, pre, callFor(pre, int64(hyp.ENOMEM)))
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) == hyp.ENOMEM {
		t.Error("vcpu_put allowed a spurious ENOMEM")
	}
}

func TestSpecUnshare(t *testing.T) {
	pfn := ramPFN(3)
	pre := prestate(hyp.HCHostUnshareHyp, uint64(pfn))
	pre.Host.Shared.Set(uint64(pfn.Phys()), 1, Mapped(pfn.Phys(),
		arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateSharedOwned}))
	pre.Pkvm.PGT.Mapping.Set(uint64(pfn.Phys())+hyp.HypVAOffset, 1, Mapped(pfn.Phys(),
		arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateSharedBorrowed}))
	post := NewState()
	computePost(t, post, pre, callFor(pre, 0))
	if !post.Host.Shared.IsEmpty() || !post.Pkvm.PGT.Mapping.IsEmpty() {
		t.Error("unshare did not clear both sides")
	}

	// Unsharing a page the guest shared (borrowed by the host) is
	// EPERM: the host does not own that share.
	pre = prestate(hyp.HCHostUnshareHyp, uint64(pfn))
	pre.Host.Shared.Set(uint64(pfn.Phys()), 1, Mapped(pfn.Phys(),
		arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateSharedBorrowed}))
	post = NewState()
	computePost(t, post, pre, callFor(pre, int64(hyp.EPERM)))
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.EPERM {
		t.Error("unshare of borrowed page not EPERM")
	}
}

func TestSpecDonate(t *testing.T) {
	pfn := ramPFN(4)
	pre := prestate(hyp.HCHostDonateHyp, uint64(pfn), 3)
	post := NewState()
	computePost(t, post, pre, callFor(pre, 0))
	for i := uint64(0); i < 3; i++ {
		tgt, ok := post.Host.Annot.Lookup(uint64(pfn.Phys()) + i*arch.PageSize)
		if !ok || tgt.Owner != hyp.IDHyp {
			t.Errorf("page %d not annotated hyp", i)
		}
	}
	if post.Pkvm.PGT.Mapping.NrPages() != 3 {
		t.Errorf("pkvm gained %d pages, want 3", post.Pkvm.PGT.Mapping.NrPages())
	}
	// The three pages coalesce into single maplets on both sides.
	if post.Host.Annot.NrMaplets() != 1 || post.Pkvm.PGT.Mapping.NrMaplets() != 1 {
		t.Errorf("donation not coalesced: %d/%d maplets",
			post.Host.Annot.NrMaplets(), post.Pkvm.PGT.Mapping.NrMaplets())
	}
}

func TestSpecReclaim(t *testing.T) {
	pfn := ramPFN(5)
	pre := prestate(hyp.HCHostReclaimPage, uint64(pfn))
	pre.VMs.Reclaim.Add(pfn)
	pre.Host.Annot.Set(uint64(pfn.Phys()), 1, Annotated(hyp.GuestOwner(0)))
	post := NewState()
	computePost(t, post, pre, callFor(pre, 0))
	if post.VMs.Reclaim.Contains(pfn) {
		t.Error("reclaim set not shrunk")
	}
	if !post.Host.Annot.IsEmpty() {
		t.Error("annotation not cleared")
	}

	// Not reclaimable: EPERM, nothing changes.
	pre = prestate(hyp.HCHostReclaimPage, uint64(pfn))
	post = NewState()
	computePost(t, post, pre, callFor(pre, int64(hyp.EPERM)))
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.EPERM {
		t.Error("unreclaimable not EPERM")
	}
}

func TestSpecInitVMDeterministicSlot(t *testing.T) {
	pfn := ramPFN(8)
	don := hyp.InitVMDonation(2)
	pre := prestate(hyp.HCInitVM, 2, uint64(pfn), don)
	// Slots 0 and 2 taken: the spec must predict slot 1.
	pre.VMs.Table[hyp.HandleOffset] = &VMInfo{Handle: hyp.HandleOffset}
	pre.VMs.Table[hyp.HandleOffset+2] = &VMInfo{Handle: hyp.HandleOffset + 2}
	post := NewState()
	computePost(t, post, pre, callFor(pre, int64(hyp.HandleOffset+1)))
	want := hyp.HandleOffset + 1
	if hyp.Handle(post.ReadGPR(0, 1)) != want {
		t.Errorf("handle = %#x, want %v", post.ReadGPR(0, 1), want)
	}
	vm := post.VMs.Table[want]
	if vm == nil || vm.NrVCPUs != 2 || len(vm.VCPUs) != 2 {
		t.Fatalf("vm info: %+v", vm)
	}
	// All-but-last donated frames stay attached as metadata.
	if len(vm.Donated) != int(don)-1 {
		t.Errorf("donated = %d, want %d", len(vm.Donated), don-1)
	}
	if tgt, ok := post.Host.Annot.Lookup(uint64(pfn.Phys())); !ok || tgt.Owner != hyp.IDHyp {
		t.Error("donation not annotated")
	}
}

func TestSpecVCPULoadPutRoundTrip(t *testing.T) {
	h := hyp.HandleOffset
	regs := arch.Regs{1, 2, 3}
	mc := []arch.PFN{ramPFN(10), ramPFN(11)}

	pre := prestate(hyp.HCVCPULoad, uint64(h), 0)
	pre.VMs.Table[h] = &VMInfo{Handle: h, NrVCPUs: 1,
		VCPUs: []VCPUInfo{{Initialized: true, LoadedOn: -1, Regs: regs, MC: mc}}}
	post := NewState()
	computePost(t, post, pre, callFor(pre, 0))

	l := post.Locals[0]
	if l.PerCPU.LoadedVM != h || l.PerCPU.LoadedVCPU != 0 {
		t.Fatalf("locals after load: %+v", l.PerCPU)
	}
	if l.GuestRegs != regs {
		t.Error("guest regs not restored on load")
	}
	if len(l.LoadedMC) != 2 {
		t.Error("memcache ownership not transferred to CPU")
	}
	if post.VMs.Table[h].VCPUs[0].MC != nil {
		t.Error("vms-side memcache not cleared on load")
	}
	if post.VMs.Table[h].VCPUs[0].LoadedOn != 0 {
		t.Error("LoadedOn not set")
	}

	// Now put: construct the post-load state as the new pre.
	pre2 := prestate(hyp.HCVCPUPut)
	pre2.VMs = post.VMs.Clone()
	l2 := pre2.Locals[0]
	l2.PerCPU.LoadedVM = h
	l2.PerCPU.LoadedVCPU = 0
	l2.GuestRegs = arch.Regs{9, 8, 7} // guest ran and changed them
	l2.LoadedMC = mc[:1]              // one page was consumed
	post2 := NewState()
	computePost(t, post2, pre2, callFor(pre2, 0))

	vc := post2.VMs.Table[h].VCPUs[0]
	if vc.LoadedOn != -1 || vc.Regs != (arch.Regs{9, 8, 7}) {
		t.Errorf("vcpu after put: %+v", vc)
	}
	if len(vc.MC) != 1 {
		t.Errorf("memcache after put: %v", vc.MC)
	}
	if post2.Locals[0].PerCPU.LoadedVM != 0 {
		t.Error("CPU still marked loaded after put")
	}
}

func TestSpecTeardownReclaimSet(t *testing.T) {
	h := hyp.HandleOffset
	pre := prestate(hyp.HCTeardownVM, uint64(h))
	pre.VMs.Table[h] = &VMInfo{Handle: h, NrVCPUs: 1,
		VCPUs:   []VCPUInfo{{Initialized: true, LoadedOn: -1, MC: []arch.PFN{ramPFN(20)}}},
		Donated: []arch.PFN{ramPFN(21), ramPFN(22)}}
	guest := &GuestPgt{Present: true, PGT: AbstractPgtable{Footprint: NewPageSet(ramPFN(23))}}
	guest.PGT.Mapping.Set(16<<arch.PageShift, 1, Mapped(ramPFN(24).Phys(),
		arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateOwned}))
	pre.Guests[h] = guest

	post := NewState()
	computePost(t, post, pre, callFor(pre, 0))
	if _, still := post.VMs.Table[h]; still {
		t.Error("vm still in table")
	}
	for _, pfn := range []arch.PFN{ramPFN(20), ramPFN(21), ramPFN(22), ramPFN(23), ramPFN(24)} {
		if !post.VMs.Reclaim.Contains(pfn) {
			t.Errorf("frame %#x not reclaimable", uint64(pfn))
		}
	}
	if g := post.Guests[h]; g == nil || !g.PGT.Mapping.IsEmpty() {
		t.Error("guest stage 2 not specified empty")
	}

	// A loaded vCPU blocks teardown.
	pre.VMs.Table[h] = &VMInfo{Handle: h, NrVCPUs: 1,
		VCPUs: []VCPUInfo{{Initialized: true, LoadedOn: 2}}}
	post = NewState()
	computePost(t, post, pre, callFor(pre, int64(hyp.EBUSY)))
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.EBUSY {
		t.Error("teardown of loaded VM not EBUSY")
	}
}

func TestSpecTopupReplaysReads(t *testing.T) {
	h := hyp.HandleOffset
	p0, p1 := ramPFN(30), ramPFN(40)
	pre := prestate(hyp.HCTopupVCPUMemcache, uint64(h), 0, uint64(p0.Phys()), 2)
	pre.VMs.Table[h] = &VMInfo{Handle: h, NrVCPUs: 1,
		VCPUs: []VCPUInfo{{Initialized: true, LoadedOn: -1}}}
	call := callFor(pre, 0)
	call.Reads = []ReadOnceRec{
		{PA: p0.Phys(), Val: uint64(p1.Phys())}, // p0's next -> p1
		{PA: p1.Phys(), Val: 0},                 // end of list
	}
	post := NewState()
	computePost(t, post, pre, call)
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.OK {
		t.Fatalf("topup spec: %v", hyp.ErrnoFromReg(post.ReadGPR(0, 1)))
	}
	mc := post.VMs.Table[h].VCPUs[0].MC
	if len(mc) != 2 || mc[0] != p0 || mc[1] != p1 {
		t.Errorf("memcache = %v", mc)
	}
	for _, p := range []arch.PFN{p0, p1} {
		if tgt, ok := post.Host.Annot.Lookup(uint64(p.Phys())); !ok || tgt.Owner != hyp.IDHyp {
			t.Errorf("page %#x not donated", uint64(p))
		}
	}
}

func TestSpecTopupPartialFailure(t *testing.T) {
	// Second list element is the carve-out: donation 1 succeeds,
	// donation 2 fails EPERM, and the spec keeps the partial effect.
	h := hyp.HandleOffset
	p0 := ramPFN(30)
	pre := prestate(hyp.HCTopupVCPUMemcache, uint64(h), 0, uint64(p0.Phys()), 2)
	pre.VMs.Table[h] = &VMInfo{Handle: h, NrVCPUs: 1,
		VCPUs: []VCPUInfo{{Initialized: true, LoadedOn: -1}}}
	carve := specGlobals().CarveStart
	pre.Host.Annot.Set(uint64(carve), 1, Annotated(hyp.IDHyp))
	call := callFor(pre, int64(hyp.EPERM))
	call.Reads = []ReadOnceRec{{PA: p0.Phys(), Val: uint64(carve)}}
	post := NewState()
	computePost(t, post, pre, call)
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.EPERM {
		t.Fatalf("ret = %v", hyp.ErrnoFromReg(post.ReadGPR(0, 1)))
	}
	if len(post.VMs.Table[h].VCPUs[0].MC) != 1 {
		t.Error("partial donation not kept")
	}
}

func TestSpecTopupDuplicateInList(t *testing.T) {
	// The same page twice in one list: second donation fails EPERM
	// against the *evolving* post-state.
	h := hyp.HandleOffset
	p0 := ramPFN(30)
	pre := prestate(hyp.HCTopupVCPUMemcache, uint64(h), 0, uint64(p0.Phys()), 2)
	pre.VMs.Table[h] = &VMInfo{Handle: h, NrVCPUs: 1,
		VCPUs: []VCPUInfo{{Initialized: true, LoadedOn: -1}}}
	call := callFor(pre, int64(hyp.EPERM))
	call.Reads = []ReadOnceRec{{PA: p0.Phys(), Val: uint64(p0.Phys())}}
	post := NewState()
	computePost(t, post, pre, call)
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.EPERM {
		t.Error("self-looping donation list not EPERM on second visit")
	}
}

func TestSpecMemAbortInjectDecision(t *testing.T) {
	g := specGlobals()
	cases := []struct {
		name     string
		ipa      arch.PhysAddr
		annot    bool
		injected bool
	}{
		{"plain RAM", g.RAMStart + 64<<20, false, false},
		{"MMIO", hyp.UARTPhys, false, false},
		{"annotated", g.RAMStart + 64<<20, true, true},
		{"hole above RAM", g.RAMStart + arch.PhysAddr(g.RAMSize) + 4096, false, true},
	}
	for _, c := range cases {
		pre := prestate(0)
		if c.annot {
			pre.Host.Annot.Set(uint64(c.ipa), 1, Annotated(hyp.IDHyp))
		}
		call := &CallData{CPU: 0, Reason: arch.ExitMemAbort,
			Fault: arch.FaultInfo{Addr: arch.IPA(c.ipa), Write: true}}
		post := NewState()
		if !computePost(t, post, pre, call) {
			t.Fatalf("%s: spec declined", c.name)
		}
		if got := post.Locals[0].PerCPU.LastAbortInjected; got != c.injected {
			t.Errorf("%s: injected=%v, want %v", c.name, got, c.injected)
		}
	}
}

func TestSpecGuestShareUnshare(t *testing.T) {
	h := hyp.HandleOffset + 3
	gp := ramPFN(50)
	ipa := arch.IPA(16 << arch.PageShift)
	owned := arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateOwned}

	pre := prestate(hyp.HCVCPURun)
	pre.Locals[0].PerCPU.LoadedVM = h
	pre.Locals[0].PerCPU.LoadedVCPU = 0
	pre.VMs.Table[h] = &VMInfo{Handle: h, NrVCPUs: 1,
		VCPUs: []VCPUInfo{{Initialized: true, LoadedOn: 0}}}
	guest := &GuestPgt{Present: true, PGT: AbstractPgtable{Footprint: PageSet{}}}
	guest.PGT.Mapping.Set(uint64(ipa), 1, Mapped(gp.Phys(), owned))
	pre.Guests[h] = guest
	pre.Host.Annot.Set(uint64(gp.Phys()), 1, Annotated(hyp.GuestOwner(3)))

	call := callFor(pre, hyp.RunExitYield)
	call.GuestExits = []GuestExitRec{{Handle: h, VCPU: 0, Op: hyp.GuestOp{Kind: hyp.GuestShareHost, IPA: ipa}}}
	post := NewState()
	if !computePost(t, post, pre, call) {
		t.Fatal("spec declined")
	}
	// Guest side flips to shared-owned; host side gains a borrowed
	// identity maplet and loses the annotation.
	tgt, _ := post.Guests[h].PGT.Mapping.Lookup(uint64(ipa))
	if tgt.Attrs.State != arch.StateSharedOwned {
		t.Errorf("guest state after share: %v", tgt.Attrs.State)
	}
	if _, still := post.Host.Annot.Lookup(uint64(gp.Phys())); still {
		t.Error("annotation survived the share")
	}
	tgt, ok := post.Host.Shared.Lookup(uint64(gp.Phys()))
	if !ok || tgt.Attrs.State != arch.StateSharedBorrowed {
		t.Errorf("host side after share: %+v ok=%v", tgt, ok)
	}
	if hyp.ErrnoFromReg(post.Locals[0].GuestRegs[0]) != hyp.OK {
		t.Error("guest r0 not OK")
	}

	// Sharing an unmapped ipa: EPERM in guest r0.
	call.GuestExits[0].Op.IPA = 99 << arch.PageShift
	post = NewState()
	computePost(t, post, pre, call)
	if hyp.ErrnoFromReg(post.Locals[0].GuestRegs[0]) != hyp.EPERM {
		t.Error("share of unmapped guest page not EPERM")
	}
}

func TestSpecMapGuestMCReplay(t *testing.T) {
	h := hyp.HandleOffset
	gp := ramPFN(60)
	t1, t2 := ramPFN(61), ramPFN(62)

	pre := prestate(hyp.HCHostMapGuest, uint64(gp), 16)
	pre.Locals[0].PerCPU.LoadedVM = h
	pre.Locals[0].PerCPU.LoadedVCPU = 0
	pre.Locals[0].LoadedMC = []arch.PFN{t1, t2}
	pre.VMs.Table[h] = &VMInfo{Handle: h, NrVCPUs: 1,
		VCPUs: []VCPUInfo{{Initialized: true, LoadedOn: 0}}}
	pre.Guests[h] = &GuestPgt{Present: true, PGT: AbstractPgtable{Footprint: PageSet{}}}

	call := callFor(pre, 0)
	call.MCOps = []MCOp{{PFN: t2}, {PFN: t1}} // two pops, LIFO
	post := NewState()
	computePost(t, post, pre, call)
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.OK {
		t.Fatalf("ret: %v", hyp.ErrnoFromReg(post.ReadGPR(0, 1)))
	}
	if len(post.Locals[0].LoadedMC) != 0 {
		t.Errorf("memcache after replay: %v", post.Locals[0].LoadedMC)
	}
	if tgt, ok := post.Guests[h].PGT.Mapping.Lookup(16 << arch.PageShift); !ok || tgt.Phys != gp.Phys() {
		t.Error("guest mapping not installed")
	}
	if tgt, ok := post.Host.Annot.Lookup(uint64(gp.Phys())); !ok || tgt.Owner != hyp.GuestOwner(0) {
		t.Error("host annotation not installed")
	}
}

func TestSpecUnknownHypercall(t *testing.T) {
	pre := prestate(hyp.HC(0x777))
	post := NewState()
	if !computePost(t, post, pre, callFor(pre, int64(hyp.ENOSYS))) {
		t.Fatal("spec declined")
	}
	if hyp.ErrnoFromReg(post.ReadGPR(0, 1)) != hyp.ENOSYS {
		t.Error("unknown hypercall not ENOSYS")
	}
}

func TestSpecVCPURunRequiresGuestExit(t *testing.T) {
	pre := prestate(hyp.HCVCPURun)
	pre.Locals[0].PerCPU.LoadedVM = hyp.HandleOffset
	// No recorded guest event: the spec cannot speak (gradual spec).
	post := NewState()
	if computePost(t, post, pre, callFor(pre, 0)) {
		t.Error("spec spoke without a recorded guest event")
	}
}

func TestSpecPurity(t *testing.T) {
	// Running the same spec twice on clones of the same inputs yields
	// identical post-states: spec functions are deterministic
	// functions of (pre, call).
	pfn := ramPFN(0)
	pre := prestate(hyp.HCHostShareHyp, uint64(pfn))
	preCopy := pre.Clone()

	p1, p2 := NewState(), NewState()
	computePost(t, p1, pre, callFor(pre, 0))
	computePost(t, p2, preCopy, callFor(preCopy, 0))
	if !EqualMappings(p1.Host.Shared, p2.Host.Shared) ||
		!EqualMappings(p1.Pkvm.PGT.Mapping, p2.Pkvm.PGT.Mapping) ||
		!p1.Locals[0].Equal(*p2.Locals[0]) {
		t.Error("spec nondeterministic on identical inputs")
	}
	// And the pre-state mappings were not mutated.
	if !pre.Host.Shared.IsEmpty() || !pre.Pkvm.PGT.Mapping.IsEmpty() {
		t.Error("spec mutated its pre-state")
	}
}
