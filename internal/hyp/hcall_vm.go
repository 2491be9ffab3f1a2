package hyp

import (
	"ghostspec/internal/arch"
	"ghostspec/internal/faults"
	"ghostspec/internal/spinlock"
)

// InitVMDonation returns the number of pages the host must donate with
// an init_vm call for a VM with nrVCPUs virtual CPUs: the stage 2 root
// plus metadata backing.
func InitVMDonation(nrVCPUs int) uint64 { return uint64(2 + nrVCPUs) }

// donationAllocator feeds a page table from a fixed set of donated
// frames; once they are consumed it is empty (further growth must come
// from a vCPU memcache).
type donationAllocator struct {
	pages *[]arch.PFN
}

func (d donationAllocator) AllocTablePage() (arch.PFN, bool) {
	ps := *d.pages
	if len(ps) == 0 {
		return 0, false
	}
	pfn := ps[len(ps)-1]
	*d.pages = ps[:len(ps)-1]
	return pfn, true
}

func (d donationAllocator) FreeTablePage(pfn arch.PFN) {
	*d.pages = append(*d.pages, pfn)
}

// initVM implements __pkvm_init_vm: the host donates pages for the
// VM's metadata and stage 2 root and receives a handle. Returns the
// handle (positive) or an errno.
func (hv *Hypervisor) initVM(cpu int, nrVCPUs int, donPFN arch.PFN, donNr uint64) int64 {
	if nrVCPUs < 1 || nrVCPUs > MaxVCPUs || donNr != InitVMDonation(nrVCPUs) {
		return int64(EINVAL)
	}
	donPhys := donPFN.Phys()
	donSize := donNr << arch.PageShift
	if !hv.Mem.InRAM(donPhys) || !hv.Mem.InRAM(donPhys+arch.PhysAddr(donSize)-1) {
		return int64(EINVAL)
	}

	hv.lockVMs(cpu, initVMLockVMs)
	hv.lockHost(cpu, initVMLockHost)
	defer func() {
		hv.unlockHost(cpu, initVMUnlockHost)
		hv.unlockVMs(cpu, initVMUnlockVMs)
	}()

	slot := -1
	for i, vm := range hv.vms {
		if vm == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		return int64(ENOSPC)
	}

	if ret := hv.hostCheckState(arch.IPA(donPhys), donSize, arch.StateOwned); ret != OK {
		return int64(ret)
	}
	if ret := hv.hostSetOwner(arch.IPA(donPhys), donSize, IDHyp); ret != OK {
		return int64(ret)
	}
	// Scrub the donation: host data must not leak into hypervisor
	// structures.
	donated := make([]arch.PFN, 0, donNr)
	for i := uint64(0); i < donNr; i++ {
		pfn := donPFN + arch.PFN(i)
		hv.clearPage(pfn.Phys())
		donated = append(donated, pfn)
	}

	handle := HandleOffset + Handle(slot)
	vm := &VM{
		Handle:    handle,
		VMID:      VMIDForSlot(slot),
		State:     VMActive,
		Protected: true,
		NrVCPUs:   nrVCPUs,
		Lock:      spinlock.NewRanked("guest:"+handle.String(), LockRankGuest, nil),
	}
	hv.instrument(vm.Lock)
	for i := 0; i < nrVCPUs; i++ {
		vm.VCPUs = append(vm.VCPUs, &VCPU{Idx: i, LoadedOn: -1})
	}
	// The stage 2 root comes out of the donation; what remains backs
	// the metadata and stays attached to the VM for eventual reclaim.
	vm.donated = donated
	pgt, err := newTableFromDonation(hv, vm)
	if err != nil {
		return int64(errnoOf(err))
	}
	vm.PGT = pgt
	hv.vms[slot] = vm
	return int64(handle)
}

// initVCPU implements __pkvm_init_vcpu: marks one of the VM's vCPUs
// ready to load.
func (hv *Hypervisor) initVCPU(cpu int, handle Handle, idx int) Errno {
	hv.lockVMs(cpu, initVCPULockVMs)
	defer hv.unlockVMs(cpu, nil)

	vm := hv.lookupVM(handle)
	if vm == nil || vm.State != VMActive {
		return ENOENT
	}
	if idx < 0 || idx >= vm.NrVCPUs {
		return EINVAL
	}
	vcpu := vm.VCPUs[idx]
	if vcpu.Initialized {
		return EEXIST
	}
	vcpu.Initialized = true
	return OK
}

// teardownVM implements __pkvm_teardown_vm: destroys the VM, moving
// all pages it held — donated metadata, stage 2 table pages, memcache
// reserves, and guest-owned memory — into the reclaim set the host
// drains with host_reclaim_page.
func (hv *Hypervisor) teardownVM(cpu int, handle Handle) Errno {
	hv.lockVMs(cpu, teardownVMLockVMs)
	defer hv.unlockVMs(cpu, nil)

	vm := hv.lookupVM(handle)
	if vm == nil || vm.State != VMActive {
		return ENOENT
	}
	for _, vcpu := range vm.VCPUs {
		if vcpu.LoadedOn >= 0 {
			return EBUSY
		}
	}

	hv.lockGuest(cpu, vm, teardownVMLockGuest)
	// Guest-owned data pages: everything the guest stage 2 maps.
	freed := guestMappedFrames(vm)
	// The table pages themselves (donation- and memcache-sourced).
	vm.PGT.Alloc = collectAllocator{pfns: &freed}
	vm.PGT.Destroy()
	vm.PGT = nil
	// Destroy tears the stage 2 down without per-entry unmaps, so no
	// break-before-make TLBIs fired: the whole regime is invalidated
	// by VMID instead (TLBI VMALLS12E1IS), still under the guest lock
	// so no new walk of the dead table can refill behind it.
	hv.tlb.InvalidateVMID(teardownVMTLBI, vm.VMID)
	hv.unlockGuest(cpu, vm, teardownVMUnlockGuest)

	for _, vcpu := range vm.VCPUs {
		freed = append(freed, vcpu.MC.Drain()...)
	}
	freed = append(freed, vm.donated...)
	hv.addReclaimable(freed)
	vm.donated = nil
	vm.State = VMTeardown
	hv.vms[handle.slot(MaxVMs)] = nil
	return OK
}

// vcpuLoad implements __pkvm_vcpu_load: transfers ownership of the
// vCPU's state from the VM-table lock to this physical CPU (paper
// §3.1's ownership subtlety). The paper's bug 3 was missing
// synchronisation here, permitting a load to observe an uninitialised
// vCPU.
func (hv *Hypervisor) vcpuLoad(cpu int, handle Handle, idx int) Errno {
	pc := hv.percpu[cpu]
	if pc.LoadedVM != 0 {
		return EBUSY
	}

	hv.lockVMs(cpu, vcpuLoadLockVMs)
	defer hv.unlockVMs(cpu, nil)

	vm := hv.lookupVM(handle)
	if vm == nil || vm.State != VMActive {
		return ENOENT
	}
	if idx < 0 || idx >= vm.NrVCPUs {
		return EINVAL
	}
	vcpu := vm.VCPUs[idx]
	// The buggy path skips the initialisation check — the relaxed
	// vcpu_load/vcpu_init race re-created deterministically.
	if !hv.Inj.Enabled(faults.BugVCPULoadRace) && !vcpu.Initialized {
		return ENOENT
	}
	if vcpu.LoadedOn >= 0 {
		return EBUSY
	}
	vcpu.LoadedOn = cpu
	pc.LoadedVM = handle
	pc.LoadedVCPU = idx
	hv.CPUs[cpu].GuestRegs = vcpu.Regs
	return OK
}

// vcpuPut implements __pkvm_vcpu_put: saves the guest context and
// returns vCPU ownership to the VM-table lock.
func (hv *Hypervisor) vcpuPut(cpu int) Errno {
	pc := hv.percpu[cpu]
	if pc.LoadedVM == 0 {
		return ENOENT
	}

	hv.lockVMs(cpu, vcpuPutLockVMs)
	defer hv.unlockVMs(cpu, nil)

	vm := hv.lookupVM(pc.LoadedVM)
	if vm == nil {
		hv.hypPanic(cpu, "vcpu_put: loaded VM %v vanished", pc.LoadedVM)
	}
	vcpu := vm.VCPUs[pc.LoadedVCPU]
	vcpu.Regs = hv.CPUs[cpu].GuestRegs
	vcpu.LoadedOn = -1
	pc.LoadedVM = 0
	pc.LoadedVCPU = -1
	return OK
}

// hostMapGuest implements __pkvm_host_map_guest: the host donates one
// of its pages into the currently loaded vCPU's VM at the given guest
// frame number. The guest's table grows from the vCPU's memcache, so
// this can fail with -ENOMEM if the host has not topped it up — a
// loosely specified failure (paper §4.3).
func (hv *Hypervisor) hostMapGuest(cpu int, pfn arch.PFN, gfn uint64) Errno {
	pc := hv.percpu[cpu]
	if pc.LoadedVM == 0 {
		return ENOENT
	}
	phys := pfn.Phys()
	gpa := gfn << arch.PageShift
	if !hv.Mem.InRAM(phys) || !arch.CanonicalIA(gpa) {
		return EINVAL
	}

	hv.lockVMs(cpu, hostMapGuestLockVMs)
	vm := hv.lookupVM(pc.LoadedVM)
	if vm == nil || vm.State != VMActive {
		hv.unlockVMs(cpu, hostMapGuestUnlockVMs)
		return ENOENT
	}
	vcpu := vm.VCPUs[pc.LoadedVCPU]
	hv.unlockVMs(cpu, hostMapGuestUnlockVMs1)

	hv.lockGuest(cpu, vm, hostMapGuestLockGuest)
	hv.lockHost(cpu, hostMapGuestLockHost)
	defer func() {
		hv.unlockHost(cpu, hostMapGuestUnlockHost)
		hv.unlockGuest(cpu, vm, hostMapGuestUnlockGuest)
	}()

	if ret := hv.hostCheckState(arch.IPA(phys), arch.PageSize, arch.StateOwned); ret != OK {
		return ret
	}
	// The guest target must be unmapped.
	if pte, _ := vm.PGT.GetLeaf(gpa); pte.Valid() {
		return EEXIST
	}
	slot := vm.Handle.slot(MaxVMs)
	if ret := hv.hostSetOwner(arch.IPA(phys), arch.PageSize, GuestOwner(slot)); ret != OK {
		return ret
	}
	hv.clearPage(phys) // scrub host data before the guest sees it

	vm.PGT.Alloc = memcacheAllocator{hv: hv, cpu: cpu, vcpu: vcpu}
	attrs := arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateOwned}
	if err := vm.PGT.Map(gpa, arch.PageSize, phys, attrs, false); err != nil {
		// Roll the ownership transfer back so the failure is clean.
		ret := errnoOf(err)
		if r2 := hv.hostSetOwner(arch.IPA(phys), arch.PageSize, 0); r2 != OK {
			hv.hypPanic(cpu, "map_guest: rollback failed: %v", r2)
		}
		return ret
	}
	return OK
}

// topupVCPUMemcache implements the memcache topup path: the host
// threads a linked list through the pages it is donating (each page's
// first word holds the physical address of the next) and passes its
// head. The hypervisor pops nr pages off the list, taking ownership
// of each. The paper's bugs 1 and 2 live here: a missing alignment
// check on the host-supplied addresses, and a truncating size check.
func (hv *Hypervisor) topupVCPUMemcache(cpu int, handle Handle, idx int, head arch.PhysAddr, nr uint64) Errno {
	take := int64(nr)
	if hv.Inj.Enabled(faults.BugMemcacheSize) {
		// The buggy bound check truncates the count first; huge
		// counts slip through as zero or negative.
		take = int64(int16(nr))
	} else if nr > MemcacheCapPages {
		return EINVAL
	}

	hv.lockVMs(cpu, topupVCPUMemcacheLockVMs)
	hv.lockHost(cpu, topupVCPUMemcacheLockHost)
	defer func() {
		hv.unlockHost(cpu, topupVCPUMemcacheUnlockHost)
		hv.unlockVMs(cpu, topupVCPUMemcacheUnlockVMs)
	}()

	vm := hv.lookupVM(handle)
	if vm == nil || vm.State != VMActive {
		return ENOENT
	}
	if idx < 0 || idx >= vm.NrVCPUs {
		return EINVAL
	}
	vcpu := vm.VCPUs[idx]
	if !vcpu.Initialized {
		return ENOENT
	}
	if vcpu.LoadedOn >= 0 {
		// The memcache is owned by the loading CPU while loaded;
		// topping it up from here would race with it.
		return EBUSY
	}

	addr := head
	for i := int64(0); i < take; i++ {
		if !hv.Inj.Enabled(faults.BugMemcacheAlignment) {
			if !arch.PageAligned(uint64(addr)) {
				return EINVAL
			}
		} else if addr&7 != 0 {
			// Even the buggy path cannot survive a misaligned word
			// read in this model.
			return EINVAL
		}
		page := arch.PhysAddr(arch.AlignDown(uint64(addr)))
		if !hv.Mem.InRAM(page) {
			return EINVAL
		}
		if ret := hv.hostCheckState(arch.IPA(page), arch.PageSize, arch.StateOwned); ret != OK {
			return ret
		}
		// Read the next pointer before scrubbing destroys it. The
		// host still owns the page, so this is a READ_ONCE the
		// specification is parameterised on.
		next := hv.readOnceHost(cpu, addr)
		if ret := hv.hostSetOwner(arch.IPA(page), arch.PageSize, IDHyp); ret != OK {
			return ret
		}
		// Scrub at the host-supplied address: with the alignment
		// check missing, this wanders across the frame boundary.
		hv.clearPage(addr)
		vcpu.MC.Push(arch.PhysToPFN(page))
		addr = arch.PhysAddr(next)
	}
	return OK
}

// lookupVM resolves a handle to its VM slot. The slot array is
// protected by the VM-table lock; LoadedMCPages documents the one
// sanctioned lock-free exception.
//
//ghost:requires lock=vms
func (hv *Hypervisor) lookupVM(handle Handle) *VM {
	slot := handle.slot(MaxVMs)
	if slot < 0 {
		return nil
	}
	return hv.vms[slot]
}
