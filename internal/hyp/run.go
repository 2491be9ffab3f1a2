package hyp

import (
	"ghostspec/internal/arch"
	"ghostspec/internal/faults"
)

// QueueGuestOp scripts the next behaviour of a vCPU — the simulation's
// stand-in for the guest image. It is test-harness machinery, not part
// of the hypercall API; callers must not race it with a running vCPU.
func (hv *Hypervisor) QueueGuestOp(handle Handle, idx int, op GuestOp) bool {
	hv.vmsLock.LockAt(queueGuestOpLockVMs)
	defer hv.vmsLock.Unlock()
	vm := hv.lookupVM(handle)
	if vm == nil || idx < 0 || idx >= vm.NrVCPUs {
		return false
	}
	vm.VCPUs[idx].pending = append(vm.VCPUs[idx].pending, op)
	return true
}

// vcpuRun implements __pkvm_vcpu_run: context-switches to the loaded
// vCPU, lets the guest execute its next scripted event, handles any
// resulting guest exception at EL2, and returns to the host with an
// exit code in x1 (and fault detail in x2/x3).
func (hv *Hypervisor) vcpuRun(cpu int) int64 {
	pc := hv.percpu[cpu]
	if pc.LoadedVM == 0 {
		return int64(ENOENT)
	}
	// The vCPU is owned by this physical CPU: no lock needed to reach
	// it (paper §3.1). The VM-table lock is only needed to resolve the
	// handle to the metadata pointer.
	hv.lockVMs(cpu, vcpuRunLockVMs)
	vm := hv.lookupVM(pc.LoadedVM)
	hv.unlockVMs(cpu, vcpuRunUnlockVMs)
	if vm == nil {
		hv.hypPanic(cpu, "vcpu_run: loaded VM %v vanished", pc.LoadedVM)
	}
	vcpu := vm.VCPUs[pc.LoadedVCPU]

	// A vCPU with a program is a real (simulated) guest: interpret it
	// until the next host-visible event.
	if vcpu.Program != nil {
		return hv.runProgram(cpu, vm, vcpu)
	}

	// Otherwise consume the next scripted event. An empty script is a
	// quiescent guest that just yields.
	op := GuestOp{Kind: GuestYield}
	if len(vcpu.pending) > 0 {
		op = vcpu.pending[0]
		vcpu.pending = vcpu.pending[1:]
	}
	hv.instr.GuestExit(cpu, vm.Handle, vcpu.Idx, op)

	regs := &hv.CPUs[cpu].HostRegs
	switch op.Kind {
	case GuestYield:
		return RunExitYield

	case GuestAccess:
		res, fault := hv.translateGuest(cpu, vm, op.IPA, arch.Access{Write: op.Write})
		if fault != nil {
			// Guest stage 2 abort: exit to the host with the fault
			// information (the virtio notification path).
			regs[2] = uint64(op.IPA)
			regs[3] = boolReg(op.Write)
			return RunExitMemAbort
		}
		if op.Write {
			hv.Mem.Write64(res.OutputAddr&^7, op.Value)
		} else {
			hv.CPUs[cpu].GuestRegs[0] = hv.Mem.Read64(res.OutputAddr &^ 7)
		}
		return RunExitYield

	case GuestShareHost:
		hv.CPUs[cpu].GuestRegs[0] = hv.guestShareHost(cpu, vm, op.IPA).Reg()
		return RunExitYield

	case GuestUnshareHost:
		hv.CPUs[cpu].GuestRegs[0] = hv.guestUnshareHost(cpu, vm, op.IPA).Reg()
		return RunExitYield
	}
	return int64(EINVAL)
}

func boolReg(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// guestShareHost handles the guest_share_host guest hypercall: the
// guest lends one of its own pages back to the host (e.g. a virtio
// ring). The page stays guest-owned, marked shared, and the host gains
// a borrowed mapping.
func (hv *Hypervisor) guestShareHost(cpu int, vm *VM, ipa arch.IPA) Errno {
	if !arch.PageAligned(uint64(ipa)) {
		return EINVAL
	}
	hv.lockGuest(cpu, vm, guestShareHostLockGuest)
	hv.lockHost(cpu, guestShareHostLockHost)
	defer func() {
		hv.unlockHost(cpu, guestShareHostUnlockHost)
		hv.unlockGuest(cpu, vm, guestShareHostUnlockGuest)
	}()

	pte, level := vm.PGT.GetLeaf(uint64(ipa))
	if !pte.Valid() || pte.Attrs().State != arch.StateOwned {
		return EPERM
	}
	phys := pte.OutputAddr(level) + arch.PhysAddr(uint64(ipa)&(arch.LevelSize(level)-1))

	// Guest side: same mapping, now marked shared-owned.
	gAttrs := pte.Attrs()
	gAttrs.State = arch.StateSharedOwned
	if err := vm.PGT.Map(uint64(ipa), arch.PageSize, phys, gAttrs, true); err != nil {
		return errnoOf(err)
	}
	// Host side: the annotation for this frame becomes a borrowed
	// mapping.
	hAttrs := hv.hostDefaultAttrs(phys, arch.StateSharedBorrowed)
	if err := hv.hostPGT.Map(uint64(phys), arch.PageSize, phys, hAttrs, true); err != nil {
		return errnoOf(err)
	}
	return OK
}

// guestUnshareHost reverses guestShareHost: the borrowed host mapping
// reverts to a guest-owner annotation and the guest page returns to
// exclusive ownership.
func (hv *Hypervisor) guestUnshareHost(cpu int, vm *VM, ipa arch.IPA) Errno {
	if !arch.PageAligned(uint64(ipa)) {
		return EINVAL
	}
	hv.lockGuest(cpu, vm, guestUnshareHostLockGuest)
	hv.lockHost(cpu, guestUnshareHostLockHost)
	defer func() {
		hv.unlockHost(cpu, guestUnshareHostUnlockHost)
		hv.unlockGuest(cpu, vm, guestUnshareHostUnlockGuest)
	}()

	pte, level := vm.PGT.GetLeaf(uint64(ipa))
	if !pte.Valid() || pte.Attrs().State != arch.StateSharedOwned {
		return EPERM
	}
	phys := pte.OutputAddr(level) + arch.PhysAddr(uint64(ipa)&(arch.LevelSize(level)-1))

	hpte, hlevel := hv.hostPGT.GetLeaf(uint64(phys))
	if !hpte.Valid() || hpte.Attrs().State != arch.StateSharedBorrowed {
		hv.hypPanic(cpu, "guest_unshare: host side of share at %#x inconsistent", uint64(phys))
	}
	_ = hlevel

	gAttrs := pte.Attrs()
	gAttrs.State = arch.StateOwned
	if err := vm.PGT.Map(uint64(ipa), arch.PageSize, phys, gAttrs, true); err != nil {
		return errnoOf(err)
	}
	slot := vm.Handle.slot(MaxVMs)
	// The host's borrowed mapping becomes an annotation: a live
	// translation disappears, the other unshare path whose
	// break-before-make TLBI the injected bug suppresses.
	if hv.Inj.Enabled(faults.BugUnshareSkipTLBI) {
		hv.hostTLBIOff = true
	}
	ret := hv.hostSetOwner(arch.IPA(phys), arch.PageSize, GuestOwner(slot))
	hv.hostTLBIOff = false
	if ret != OK {
		return ret
	}
	return OK
}
