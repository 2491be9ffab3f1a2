package hyp

import (
	"errors"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/faults"
)

// newTestHV boots a small system with the given injected bugs.
func newTestHV(t *testing.T, bugs ...faults.Bug) *Hypervisor {
	t.Helper()
	hv, err := New(Config{Inj: faults.NewInjector(bugs...)})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return hv
}

// hvc issues a hypercall on cpu and returns the x1 result.
func hvc(t *testing.T, hv *Hypervisor, cpu int, id HC, args ...uint64) int64 {
	t.Helper()
	regs := &hv.CPUs[cpu].HostRegs
	regs[0] = uint64(id)
	for i, a := range args {
		regs[i+1] = a
	}
	if err := hv.HandleTrap(cpu, arch.ExitHVC); err != nil {
		t.Fatalf("%v trap: %v", id, err)
	}
	return int64(regs[1])
}

// hostTouch simulates a host data access: a stage 2 walk, faulting to
// EL2 on a miss, then a retry. Returns false if the fault was
// reflected back into the host (the access failed).
func hostTouch(t *testing.T, hv *Hypervisor, cpu int, ipa arch.IPA, write bool) bool {
	t.Helper()
	acc := arch.Access{Write: write}
	if _, fault := arch.Walk(hv.Mem, hv.HostPGTRoot(), uint64(ipa), acc); fault == nil {
		return true
	}
	hv.CPUs[cpu].Fault = arch.FaultInfo{Addr: ipa, Write: write}
	if err := hv.HandleTrap(cpu, arch.ExitMemAbort); err != nil {
		t.Fatalf("mem abort trap: %v", err)
	}
	_, fault := arch.Walk(hv.Mem, hv.HostPGTRoot(), uint64(ipa), acc)
	return fault == nil
}

// hostPFN returns the n'th host-allocatable frame.
func hostPFN(hv *Hypervisor, n uint64) arch.PFN {
	return arch.PhysToPFN(hv.HostMemStart()) + arch.PFN(n)
}

func TestBootLayout(t *testing.T) {
	hv := newTestHV(t)
	g := hv.Globals()
	if g.NrCPUs != 4 {
		t.Errorf("NrCPUs = %d", g.NrCPUs)
	}
	if g.CarveStart != g.RAMStart {
		t.Error("carve-out not at RAM base")
	}
	// The hypervisor's own linear map covers the carve-out.
	for off := uint64(0); off < g.CarveSize; off += arch.PageSize {
		va := HypVAOffset + uint64(g.CarveStart) + off
		res, f := arch.WalkRead(hv.Mem, hv.HypPGTRoot(), va)
		if f != nil || res.OutputAddr != g.CarveStart+arch.PhysAddr(off) {
			t.Fatalf("linear map broken at +%#x: %v", off, f)
		}
	}
	// The console mapping is above the linear region.
	res, f := arch.WalkRead(hv.Mem, hv.HypPGTRoot(), uint64(g.UARTHypVA))
	if f != nil || res.OutputAddr != g.UARTPhys || res.Attrs.Mem != arch.MemDevice {
		t.Errorf("uart mapping: %+v fault %v", res, f)
	}
	if uint64(g.UARTHypVA) < HypVAOffset+uint64(g.RAMStart)+g.RAMSize {
		t.Error("uart VA inside the linear region")
	}
}

func TestBootCarveOutProtected(t *testing.T) {
	hv := newTestHV(t)
	g := hv.Globals()
	// The host cannot fault in the hypervisor's carve-out.
	if hostTouch(t, hv, 0, arch.IPA(g.CarveStart), true) {
		t.Error("host accessed the hypervisor carve-out")
	}
	if !hv.PerCPUState(0).LastAbortInjected {
		t.Error("abort on carve-out not injected back to host")
	}
}

func TestHostDemandMapping(t *testing.T) {
	hv := newTestHV(t)
	pfn := hostPFN(hv, 10)
	if !hostTouch(t, hv, 0, arch.IPA(pfn.Phys()), true) {
		t.Fatal("host could not fault in its own memory")
	}
	// The fault should have installed a whole 2MB block when the
	// surrounding region is free.
	pte, level := hv.hostPGT.GetLeaf(uint64(pfn.Phys()))
	if level != 2 || pte.Kind(level) != arch.EKBlock {
		t.Errorf("demand mapping: level %d %v, want level 2 block", level, pte.Kind(level))
	}
	if pte.Attrs().State != arch.StateOwned {
		t.Errorf("demand mapping state = %v", pte.Attrs().State)
	}
}

func TestHostDemandMapping1GBBlock(t *testing.T) {
	// On a big-memory device a fault in a fully-free, fully-DRAM 1GB
	// region gets a level 1 block.
	big := arch.MemLayout{RAMStart: 1 << 30, RAMSize: 4 << 30, MMIOSize: 16 << 20}
	hv, err := New(Config{Layout: big})
	if err != nil {
		t.Fatal(err)
	}
	// Fault well past the carve-out's GB so the containing 1GB entry
	// is entirely free: the region at 3GB.
	ipa := arch.IPA(3 << 30)
	if !hostTouch(t, hv, 0, ipa, true) {
		t.Fatal("fault-in failed")
	}
	pte, level := hv.hostPGT.GetLeaf(uint64(ipa))
	if level != 1 || pte.Kind(level) != arch.EKBlock {
		t.Errorf("big-memory demand map: level %d %v, want level 1 block", level, pte.Kind(level))
	}
	// The far end of the GB translates without another fault.
	far := uint64(ipa) + 1<<30 - arch.PageSize
	if _, f := arch.WalkRead(hv.Mem, hv.HostPGTRoot(), far); f != nil {
		t.Errorf("far end of 1GB block faults: %v", f)
	}
	// Sharing one page inside it splits two levels down and the share
	// still works.
	pfn := arch.PhysToPFN(arch.PhysAddr(ipa)) + 12345
	if ret := hvc(t, hv, 0, HCHostShareHyp, uint64(pfn)); ret != 0 {
		t.Fatalf("share inside 1GB block: %v", Errno(ret))
	}
	if _, level := hv.hostPGT.GetLeaf(uint64(pfn.Phys())); level != 3 {
		t.Errorf("share did not split to page level: %d", level)
	}
}

func TestHostDemandMappingMMIO(t *testing.T) {
	hv := newTestHV(t)
	if !hostTouch(t, hv, 0, arch.IPA(UARTPhys), true) {
		t.Fatal("host could not fault in MMIO")
	}
	pte, level := hv.hostPGT.GetLeaf(uint64(UARTPhys))
	if level != 3 {
		t.Errorf("MMIO mapped at level %d, want single page", level)
	}
	if a := pte.Attrs(); a.Mem != arch.MemDevice || a.Perms&arch.PermX != 0 {
		t.Errorf("MMIO attrs = %v", a)
	}
}

func TestHostAbortOutsidePhysicalMap(t *testing.T) {
	hv := newTestHV(t)
	beyond := arch.IPA(uint64(hv.Globals().RAMStart) + hv.Globals().RAMSize + 1<<30)
	if hostTouch(t, hv, 0, beyond, false) {
		t.Error("host accessed a hole in the physical map")
	}
}

func TestSpuriousHostFaultIsRobust(t *testing.T) {
	hv := newTestHV(t)
	pfn := hostPFN(hv, 3)
	ipa := arch.IPA(pfn.Phys())
	if !hostTouch(t, hv, 0, ipa, true) {
		t.Fatal("initial fault-in failed")
	}
	// Re-deliver a fault for the now-mapped page: the fixed handler
	// treats it as spurious.
	hv.CPUs[0].Fault = arch.FaultInfo{Addr: ipa, Write: true}
	if err := hv.HandleTrap(0, arch.ExitMemAbort); err != nil {
		t.Errorf("spurious fault panicked the hypervisor: %v", err)
	}
}

func TestSpuriousHostFaultPanicsWithBug(t *testing.T) {
	hv := newTestHV(t, faults.BugHostFaultRetry)
	pfn := hostPFN(hv, 3)
	ipa := arch.IPA(pfn.Phys())
	if !hostTouch(t, hv, 0, ipa, true) {
		t.Fatal("initial fault-in failed")
	}
	hv.CPUs[0].Fault = arch.FaultInfo{Addr: ipa, Write: true}
	err := hv.HandleTrap(0, arch.ExitMemAbort)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("buggy spurious fault: err = %v, want PanicError", err)
	}
}

func TestShareUnshareHyp(t *testing.T) {
	hv := newTestHV(t)
	pfn := hostPFN(hv, 0)
	phys := pfn.Phys()

	if ret := hvc(t, hv, 0, HCHostShareHyp, uint64(pfn)); ret != 0 {
		t.Fatalf("share: %v", Errno(ret))
	}
	// Host side: identity mapping, shared-owned.
	hpte, _ := hv.hostPGT.GetLeaf(uint64(phys))
	if !hpte.Valid() || hpte.Attrs().State != arch.StateSharedOwned {
		t.Errorf("host side after share: %v %v", hpte.Kind(3), hpte.Attrs())
	}
	// Hyp side: borrowed RW mapping at the linear address.
	res, f := arch.WalkRead(hv.Mem, hv.HypPGTRoot(), uint64(HypVA(phys)))
	if f != nil || res.OutputAddr != phys {
		t.Fatalf("hyp side after share: %v", f)
	}
	if a := res.Attrs; a.State != arch.StateSharedBorrowed || a.Perms != arch.PermRW {
		t.Errorf("hyp attrs after share: %v", a)
	}

	if ret := hvc(t, hv, 0, HCHostUnshareHyp, uint64(pfn)); ret != 0 {
		t.Fatalf("unshare: %v", Errno(ret))
	}
	hpte, _ = hv.hostPGT.GetLeaf(uint64(phys))
	if hpte.Attrs().State != arch.StateOwned {
		t.Errorf("host state after unshare: %v", hpte.Attrs().State)
	}
	if _, f := arch.WalkRead(hv.Mem, hv.HypPGTRoot(), uint64(HypVA(phys))); f == nil {
		t.Error("hyp mapping survived unshare")
	}
}

func TestShareErrors(t *testing.T) {
	hv := newTestHV(t)
	pfn := hostPFN(hv, 0)

	// Double share: second must fail EPERM (already shared-owned).
	if ret := hvc(t, hv, 0, HCHostShareHyp, uint64(pfn)); ret != 0 {
		t.Fatal("first share failed")
	}
	if ret := hvc(t, hv, 0, HCHostShareHyp, uint64(pfn)); Errno(ret) != EPERM {
		t.Errorf("double share = %v, want EPERM", Errno(ret))
	}
	// Sharing the hypervisor's own carve-out: EPERM.
	carve := arch.PhysToPFN(hv.Globals().CarveStart)
	if ret := hvc(t, hv, 0, HCHostShareHyp, uint64(carve)); Errno(ret) != EPERM {
		t.Errorf("share of carve-out = %v, want EPERM", Errno(ret))
	}
	// Sharing MMIO: EINVAL (not memory).
	if ret := hvc(t, hv, 0, HCHostShareHyp, uint64(arch.PhysToPFN(UARTPhys))); Errno(ret) != EINVAL {
		t.Errorf("share of MMIO = %v, want EINVAL", Errno(ret))
	}
	// Unshare of something never shared: EPERM.
	if ret := hvc(t, hv, 0, HCHostUnshareHyp, uint64(hostPFN(hv, 5))); Errno(ret) != EPERM {
		t.Errorf("unshare of unshared = %v, want EPERM", Errno(ret))
	}
}

func TestUnknownHypercall(t *testing.T) {
	hv := newTestHV(t)
	if ret := hvc(t, hv, 0, HC(0x999)); Errno(ret) != ENOSYS {
		t.Errorf("unknown hypercall = %v, want ENOSYS", Errno(ret))
	}
}

func TestDonateHyp(t *testing.T) {
	hv := newTestHV(t)
	pfn := hostPFN(hv, 20)
	if ret := hvc(t, hv, 0, HCHostDonateHyp, uint64(pfn), 4); ret != 0 {
		t.Fatalf("donate: %v", Errno(ret))
	}
	// Host side: annotated hyp-owned; host loses access.
	for i := uint64(0); i < 4; i++ {
		pte, level := hv.hostPGT.GetLeaf(uint64((pfn + arch.PFN(i)).Phys()))
		if pte.Kind(level) != arch.EKAnnotated || pte.OwnerID() != IDHyp {
			t.Errorf("page %d not hyp-annotated after donate", i)
		}
	}
	if hostTouch(t, hv, 0, arch.IPA(pfn.Phys()), false) {
		t.Error("host still reaches donated memory")
	}
	// Hyp side mapped owned.
	res, f := arch.WalkRead(hv.Mem, hv.HypPGTRoot(), uint64(HypVA(pfn.Phys())))
	if f != nil || res.Attrs.State != arch.StateOwned {
		t.Errorf("hyp side after donate: %+v %v", res, f)
	}
	// Re-donating the same range fails.
	if ret := hvc(t, hv, 0, HCHostDonateHyp, uint64(pfn), 4); Errno(ret) != EPERM {
		t.Errorf("double donate = %v, want EPERM", Errno(ret))
	}
	// Bad sizes.
	if ret := hvc(t, hv, 0, HCHostDonateHyp, uint64(pfn), 0); Errno(ret) != EINVAL {
		t.Errorf("donate nr=0 = %v", Errno(ret))
	}
	if ret := hvc(t, hv, 0, HCHostDonateHyp, uint64(pfn), MaxDonate+1); Errno(ret) != EINVAL {
		t.Errorf("donate nr>max = %v", Errno(ret))
	}
}

// setupVM creates a VM with one initialised vCPU and returns its
// handle. Pages n..n+donation-1 from base are donated.
func setupVM(t *testing.T, hv *Hypervisor, cpu int, base uint64) Handle {
	t.Helper()
	don := InitVMDonation(1)
	ret := hvc(t, hv, cpu, HCInitVM, 1, uint64(hostPFN(hv, base)), don)
	if ret < int64(HandleOffset) {
		t.Fatalf("init_vm: %v", Errno(ret))
	}
	h := Handle(ret)
	if r := hvc(t, hv, cpu, HCInitVCPU, uint64(h), 0); r != 0 {
		t.Fatalf("init_vcpu: %v", Errno(r))
	}
	return h
}

func TestVMLifecycle(t *testing.T) {
	hv := newTestHV(t)
	h := setupVM(t, hv, 0, 100)

	// Donated pages are hyp-owned now.
	if hostTouch(t, hv, 0, arch.IPA(hostPFN(hv, 100).Phys()), false) {
		t.Error("host reaches pages donated to a VM")
	}

	// Load / run (quiescent guest yields) / put.
	if r := hvc(t, hv, 0, HCVCPULoad, uint64(h), 0); r != 0 {
		t.Fatalf("vcpu_load: %v", Errno(r))
	}
	if r := hvc(t, hv, 0, HCVCPURun); r != RunExitYield {
		t.Fatalf("vcpu_run: %v", r)
	}
	if r := hvc(t, hv, 0, HCVCPUPut); r != 0 {
		t.Fatalf("vcpu_put: %v", Errno(r))
	}

	// Teardown and reclaim everything.
	if r := hvc(t, hv, 0, HCTeardownVM, uint64(h)); r != 0 {
		t.Fatalf("teardown: %v", Errno(r))
	}
	for i := uint64(0); i < InitVMDonation(1); i++ {
		pfn := hostPFN(hv, 100+i)
		if r := hvc(t, hv, 0, HCHostReclaimPage, uint64(pfn)); r != 0 {
			t.Fatalf("reclaim page %d: %v", i, Errno(r))
		}
	}
	// Host owns the pages again.
	if !hostTouch(t, hv, 0, arch.IPA(hostPFN(hv, 100).Phys()), true) {
		t.Error("host cannot reach reclaimed pages")
	}
	// Reclaiming twice fails.
	if r := hvc(t, hv, 0, HCHostReclaimPage, uint64(hostPFN(hv, 100))); Errno(r) != EPERM {
		t.Errorf("double reclaim = %v, want EPERM", Errno(r))
	}
}

func TestVMLifecycleErrors(t *testing.T) {
	hv := newTestHV(t)

	// init_vm with wrong donation size.
	if r := hvc(t, hv, 0, HCInitVM, 1, uint64(hostPFN(hv, 100)), 99); Errno(r) != EINVAL {
		t.Errorf("bad donation = %v", Errno(r))
	}
	// init_vm with zero or too many vcpus.
	if r := hvc(t, hv, 0, HCInitVM, 0, uint64(hostPFN(hv, 100)), InitVMDonation(0)); Errno(r) != EINVAL {
		t.Errorf("0 vcpus = %v", Errno(r))
	}
	h := setupVM(t, hv, 0, 100)

	// init_vcpu duplicate and out of range.
	if r := hvc(t, hv, 0, HCInitVCPU, uint64(h), 0); Errno(r) != EEXIST {
		t.Errorf("re-init vcpu = %v", Errno(r))
	}
	if r := hvc(t, hv, 0, HCInitVCPU, uint64(h), 5); Errno(r) != EINVAL {
		t.Errorf("init vcpu 5 of 1 = %v", Errno(r))
	}
	// load of bad handle / uninitialised vcpu.
	if r := hvc(t, hv, 0, HCVCPULoad, 0x9999, 0); Errno(r) != ENOENT {
		t.Errorf("load bad handle = %v", Errno(r))
	}
	// run/put with nothing loaded.
	if r := hvc(t, hv, 0, HCVCPURun); Errno(r) != ENOENT {
		t.Errorf("run unloaded = %v", Errno(r))
	}
	if r := hvc(t, hv, 0, HCVCPUPut); Errno(r) != ENOENT {
		t.Errorf("put unloaded = %v", Errno(r))
	}
	// Double load on one CPU / load of loaded vcpu on another.
	if r := hvc(t, hv, 0, HCVCPULoad, uint64(h), 0); r != 0 {
		t.Fatal("load failed")
	}
	if r := hvc(t, hv, 0, HCVCPULoad, uint64(h), 0); Errno(r) != EBUSY {
		t.Errorf("double load same cpu = %v", Errno(r))
	}
	if r := hvc(t, hv, 1, HCVCPULoad, uint64(h), 0); Errno(r) != EBUSY {
		t.Errorf("load of loaded vcpu = %v", Errno(r))
	}
	// Teardown while loaded.
	if r := hvc(t, hv, 1, HCTeardownVM, uint64(h)); Errno(r) != EBUSY {
		t.Errorf("teardown while loaded = %v", Errno(r))
	}
}

func TestVCPULoadUninitialised(t *testing.T) {
	hv := newTestHV(t)
	don := InitVMDonation(2)
	ret := hvc(t, hv, 0, HCInitVM, 2, uint64(hostPFN(hv, 100)), don)
	h := Handle(ret)
	// vCPU 1 never initialised: the fixed load refuses.
	if r := hvc(t, hv, 0, HCVCPULoad, uint64(h), 1); Errno(r) != ENOENT {
		t.Errorf("load of uninitialised vcpu = %v, want ENOENT", Errno(r))
	}
}

func TestVCPULoadRaceBug(t *testing.T) {
	hv := newTestHV(t, faults.BugVCPULoadRace)
	don := InitVMDonation(2)
	ret := hvc(t, hv, 0, HCInitVM, 2, uint64(hostPFN(hv, 100)), don)
	h := Handle(ret)
	// With the bug injected, loading the uninitialised vCPU succeeds —
	// the defect the runtime oracle must flag.
	if r := hvc(t, hv, 0, HCVCPULoad, uint64(h), 1); r != 0 {
		t.Errorf("buggy load of uninitialised vcpu = %v, want success", Errno(r))
	}
}

// topupList builds the linked list of donation pages in host memory
// and returns the head address.
func topupList(hv *Hypervisor, pfns []arch.PFN) arch.PhysAddr {
	for i, pfn := range pfns {
		next := uint64(0)
		if i+1 < len(pfns) {
			next = uint64(pfns[i+1].Phys())
		}
		hv.Mem.Write64(pfn.Phys(), next)
	}
	return pfns[0].Phys()
}

func TestTopupAndMapGuest(t *testing.T) {
	hv := newTestHV(t)
	h := setupVM(t, hv, 0, 100)

	// Top up the vCPU memcache with 4 pages.
	pfns := []arch.PFN{hostPFN(hv, 200), hostPFN(hv, 201), hostPFN(hv, 202), hostPFN(hv, 203)}
	head := topupList(hv, pfns)
	if r := hvc(t, hv, 0, HCTopupVCPUMemcache, uint64(h), 0, uint64(head), 4); r != 0 {
		t.Fatalf("topup: %v", Errno(r))
	}
	hv.lockVMs(0, nil)
	mcLen := hv.lookupVM(h).VCPUs[0].MC.Len()
	hv.unlockVMs(0, nil)
	if mcLen != 4 {
		t.Fatalf("memcache depth = %d, want 4", mcLen)
	}

	// Map a host page into the guest at gfn 16.
	if r := hvc(t, hv, 0, HCVCPULoad, uint64(h), 0); r != 0 {
		t.Fatal("load failed")
	}
	guestPage := hostPFN(hv, 300)
	if r := hvc(t, hv, 0, HCHostMapGuest, uint64(guestPage), 16); r != 0 {
		t.Fatalf("map_guest: %v", Errno(r))
	}
	// Guest sees the page at IPA 16<<12.
	hv.lockVMs(0, nil)
	vm := hv.lookupVM(h)
	hv.unlockVMs(0, nil)
	res, f := arch.WalkRead(hv.Mem, vm.PGT.Root(), 16<<arch.PageShift)
	if f != nil || res.OutputAddr != guestPage.Phys() {
		t.Fatalf("guest walk: %+v %v", res, f)
	}
	// Host lost the page.
	if hostTouch(t, hv, 1, arch.IPA(guestPage.Phys()), false) {
		t.Error("host reaches guest-owned page")
	}
	// Mapping the same gfn again: EEXIST.
	if r := hvc(t, hv, 0, HCHostMapGuest, uint64(hostPFN(hv, 301)), 16); Errno(r) != EEXIST {
		t.Errorf("double map_guest = %v", Errno(r))
	}
	// Mapping an already-donated page: EPERM.
	if r := hvc(t, hv, 0, HCHostMapGuest, uint64(guestPage), 17); Errno(r) != EPERM {
		t.Errorf("map_guest of guest page = %v", Errno(r))
	}
}

func TestMapGuestNoMemcache(t *testing.T) {
	hv := newTestHV(t)
	h := setupVM(t, hv, 0, 100)
	if r := hvc(t, hv, 0, HCVCPULoad, uint64(h), 0); r != 0 {
		t.Fatal("load failed")
	}
	// Empty memcache: the guest table cannot grow.
	if r := hvc(t, hv, 0, HCHostMapGuest, uint64(hostPFN(hv, 300)), 16); Errno(r) != ENOMEM {
		t.Errorf("map_guest with empty memcache = %v, want ENOMEM", Errno(r))
	}
	// The ownership rollback worked: the host still owns the page.
	if !hostTouch(t, hv, 1, arch.IPA(hostPFN(hv, 300).Phys()), true) {
		t.Error("failed map_guest leaked the page ownership")
	}
}

func TestTopupErrors(t *testing.T) {
	hv := newTestHV(t)
	h := setupVM(t, hv, 0, 100)

	// Oversized request.
	if r := hvc(t, hv, 0, HCTopupVCPUMemcache, uint64(h), 0, uint64(hostPFN(hv, 200).Phys()), MemcacheCapPages+1); Errno(r) != EINVAL {
		t.Errorf("oversized topup = %v", Errno(r))
	}
	// Misaligned page address.
	bad := uint64(hostPFN(hv, 200).Phys()) + 0x800
	if r := hvc(t, hv, 0, HCTopupVCPUMemcache, uint64(h), 0, bad, 1); Errno(r) != EINVAL {
		t.Errorf("misaligned topup = %v, want EINVAL", Errno(r))
	}
	// Donating a page the host does not own.
	carve := uint64(hv.Globals().CarveStart)
	if r := hvc(t, hv, 0, HCTopupVCPUMemcache, uint64(h), 0, carve, 1); Errno(r) != EPERM {
		t.Errorf("topup with hyp page = %v, want EPERM", Errno(r))
	}
}

func TestTopupAlignmentBug(t *testing.T) {
	hv := newTestHV(t, faults.BugMemcacheAlignment)
	h := setupVM(t, hv, 0, 100)
	// A misaligned donation address now slips through. Zeroing 4KB
	// from the middle of frame 200 wanders into frame 201.
	victim := hostPFN(hv, 201)
	hv.Mem.Write64(victim.Phys(), 0xdead_beef)
	bad := uint64(hostPFN(hv, 200).Phys()) + 0x800
	hv.Mem.Write64(arch.PhysAddr(bad), 0) // next pointer: end of list
	if r := hvc(t, hv, 0, HCTopupVCPUMemcache, uint64(h), 0, bad, 1); r != 0 {
		t.Fatalf("buggy topup = %v, want success", Errno(r))
	}
	if hv.Mem.Read64(victim.Phys()) != 0 {
		t.Error("bug did not zero the neighbouring frame (injection broken)")
	}
}

func TestTopupSizeBug(t *testing.T) {
	hv := newTestHV(t, faults.BugMemcacheSize)
	h := setupVM(t, hv, 0, 100)
	// 0x10000 truncates to int16 zero: the buggy path reports success
	// without donating anything.
	if r := hvc(t, hv, 0, HCTopupVCPUMemcache, uint64(h), 0, uint64(hostPFN(hv, 200).Phys()), 0x10000); r != 0 {
		t.Fatalf("buggy oversized topup = %v, want success", Errno(r))
	}
	hv.lockVMs(0, nil)
	mcLen := hv.lookupVM(h).VCPUs[0].MC.Len()
	hv.unlockVMs(0, nil)
	if mcLen != 0 {
		t.Errorf("memcache depth = %d after truncated topup", mcLen)
	}
}

func TestGuestShareUnshareHost(t *testing.T) {
	hv := newTestHV(t)
	h := setupVM(t, hv, 0, 100)
	pfns := []arch.PFN{hostPFN(hv, 200), hostPFN(hv, 201), hostPFN(hv, 202)}
	head := topupList(hv, pfns)
	if r := hvc(t, hv, 0, HCTopupVCPUMemcache, uint64(h), 0, uint64(head), 3); r != 0 {
		t.Fatal("topup failed")
	}
	if r := hvc(t, hv, 0, HCVCPULoad, uint64(h), 0); r != 0 {
		t.Fatal("load failed")
	}
	guestPage := hostPFN(hv, 300)
	if r := hvc(t, hv, 0, HCHostMapGuest, uint64(guestPage), 16); r != 0 {
		t.Fatal("map_guest failed")
	}

	// Guest shares the page back with the host.
	ipa := arch.IPA(16 << arch.PageShift)
	hv.QueueGuestOp(h, 0, GuestOp{Kind: GuestShareHost, IPA: ipa})
	if r := hvc(t, hv, 0, HCVCPURun); r != RunExitYield {
		t.Fatalf("run = %v", r)
	}
	if e := ErrnoFromReg(hv.CPUs[0].GuestRegs[0]); e != OK {
		t.Fatalf("guest_share_host = %v", e)
	}
	// Host can now access the guest's page.
	if !hostTouch(t, hv, 1, arch.IPA(guestPage.Phys()), true) {
		t.Error("host cannot reach guest-shared page")
	}
	hpte, _ := hv.hostPGT.GetLeaf(uint64(guestPage.Phys()))
	if hpte.Attrs().State != arch.StateSharedBorrowed {
		t.Errorf("host state = %v, want borrowed", hpte.Attrs().State)
	}

	// Guest revokes the share.
	hv.QueueGuestOp(h, 0, GuestOp{Kind: GuestUnshareHost, IPA: ipa})
	if r := hvc(t, hv, 0, HCVCPURun); r != RunExitYield {
		t.Fatalf("run = %v", r)
	}
	if e := ErrnoFromReg(hv.CPUs[0].GuestRegs[0]); e != OK {
		t.Fatalf("guest_unshare_host = %v", e)
	}
	if hostTouch(t, hv, 1, arch.IPA(guestPage.Phys()), false) {
		t.Error("host still reaches unshared guest page")
	}
}

func TestGuestAccessAndFault(t *testing.T) {
	hv := newTestHV(t)
	h := setupVM(t, hv, 0, 100)
	pfns := []arch.PFN{hostPFN(hv, 200), hostPFN(hv, 201), hostPFN(hv, 202)}
	if r := hvc(t, hv, 0, HCTopupVCPUMemcache, uint64(h), 0, uint64(topupList(hv, pfns)), 3); r != 0 {
		t.Fatal("topup failed")
	}
	if r := hvc(t, hv, 0, HCVCPULoad, uint64(h), 0); r != 0 {
		t.Fatal("load failed")
	}
	// Unmapped access exits to host with fault detail.
	hv.QueueGuestOp(h, 0, GuestOp{Kind: GuestAccess, IPA: 16 << arch.PageShift, Write: true, Value: 7})
	if r := hvc(t, hv, 0, HCVCPURun); r != RunExitMemAbort {
		t.Fatalf("run = %v, want mem abort exit", r)
	}
	if hv.CPUs[0].HostRegs[2] != 16<<arch.PageShift || hv.CPUs[0].HostRegs[3] != 1 {
		t.Errorf("fault detail = %#x write=%v", hv.CPUs[0].HostRegs[2], hv.CPUs[0].HostRegs[3])
	}
	// Host maps the page; the retried access succeeds.
	guestPage := hostPFN(hv, 300)
	if r := hvc(t, hv, 0, HCHostMapGuest, uint64(guestPage), 16); r != 0 {
		t.Fatal("map_guest failed")
	}
	hv.QueueGuestOp(h, 0, GuestOp{Kind: GuestAccess, IPA: 16 << arch.PageShift, Write: true, Value: 0xabcd})
	if r := hvc(t, hv, 0, HCVCPURun); r != RunExitYield {
		t.Fatalf("retried access = %v", r)
	}
	if got := hv.Mem.Read64(guestPage.Phys()); got != 0xabcd {
		t.Errorf("guest write landed as %#x", got)
	}
}

func TestLinearMapOverlapBug(t *testing.T) {
	// Large physical memory: RAM extends past 4GB.
	big := arch.MemLayout{RAMStart: 1 << 30, RAMSize: 4 << 30, MMIOSize: 16 << 20}

	fixed, err := New(Config{Layout: big})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	gF := fixed.Globals()
	if uint64(gF.UARTHypVA) < HypVAOffset+uint64(gF.RAMStart)+gF.RAMSize {
		t.Error("fixed boot placed UART inside the linear region")
	}

	buggy, err := New(Config{Layout: big, Inj: faults.NewInjector(faults.BugLinearMapOverlap)})
	if err != nil {
		t.Fatalf("buggy boot: %v", err)
	}
	gB := buggy.Globals()
	linStart := HypVAOffset + uint64(gB.CarveStart)
	linEnd := linStart + gB.CarveSize
	if uint64(gB.UARTHypVA) >= linStart && uint64(gB.UARTHypVA) < linEnd {
		// The carve-out linear map itself got a device hole punched in
		// it: hypervisor working-memory accesses hit the device.
		res, f := arch.WalkRead(buggy.Mem, buggy.HypPGTRoot(), uint64(gB.UARTHypVA))
		if f != nil || res.Attrs.Mem != arch.MemDevice {
			t.Error("overlap did not materialise as a device mapping in the linear region")
		}
	}
}

func TestHandleString(t *testing.T) {
	for id := HCHostShareHyp; id <= HCTopupVCPUMemcache; id++ {
		if id.String() == "unknown_hypercall" {
			t.Errorf("hypercall %d has no name", id)
		}
	}
}
