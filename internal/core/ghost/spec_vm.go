package ghost

import (
	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
)

// specInitVM specifies __pkvm_init_vm. Slot assignment is
// deterministic (lowest free slot), so the expected handle is
// computable from the abstract pre-state. On success the return value
// is the handle, not zero.
func specInitVM(post, pre *State, call *CallData) int64 {
	g := pre.Globals.Globals
	nrVCPUs := int(call.Arg(pre, 1))
	donPFN := arch.PFN(call.Arg(pre, 2))
	donNr := call.Arg(pre, 3)
	donPhys := donPFN.Phys()

	post.CopyVMs(pre)
	post.CopyHost(pre)

	if nrVCPUs < 1 || nrVCPUs > hyp.MaxVCPUs || donNr != hyp.InitVMDonation(nrVCPUs) {
		rInitVMEinval.hit()
		return int64(hyp.EINVAL)
	}
	if !g.InRAM(donPhys) || !g.InRAM(donPhys+arch.PhysAddr(donNr<<arch.PageShift)-1) {
		rInitVMEinval.hit()
		return int64(hyp.EINVAL)
	}

	// Lowest free slot.
	slot := -1
	for s := 0; s < hyp.MaxVMs; s++ {
		if _, used := pre.VMs.Table[hyp.HandleOffset+hyp.Handle(s)]; !used {
			slot = s
			break
		}
	}
	if slot < 0 {
		rInitVMEnospc.hit()
		return int64(hyp.ENOSPC)
	}

	for i := uint64(0); i < donNr; i++ {
		if !ownedExclusivelyByHost(pre, donPhys+arch.PhysAddr(i<<arch.PageShift)) {
			rInitVMEperm.hit()
			return int64(hyp.EPERM)
		}
	}

	handle := hyp.HandleOffset + hyp.Handle(slot)
	info := &VMInfo{Handle: handle, NrVCPUs: nrVCPUs}
	for i := 0; i < nrVCPUs; i++ {
		info.VCPUs = append(info.VCPUs, VCPUInfo{LoadedOn: -1})
	}
	// The last donated frame becomes the stage 2 root; the rest stay
	// attached as metadata backing.
	for i := uint64(0); i < donNr-1; i++ {
		info.Donated = append(info.Donated, donPFN+arch.PFN(i))
	}
	post.VMs.Table[handle] = info
	post.Host.Annot.Set(uint64(donPhys), donNr, Annotated(hyp.IDHyp))
	rInitVMOK.hit()
	return int64(handle)
}

// specInitVCPU specifies __pkvm_init_vcpu.
func specInitVCPU(post, pre *State, call *CallData) int64 {
	handle := hyp.Handle(call.Arg(pre, 1))
	idx := int(call.Arg(pre, 2))

	post.CopyVMs(pre)

	vm, ok := pre.VMs.Table[handle]
	if !ok {
		rInitVCPUEnoent.hit()
		return int64(hyp.ENOENT)
	}
	if idx < 0 || idx >= vm.NrVCPUs {
		rInitVCPUEinval.hit()
		return int64(hyp.EINVAL)
	}
	if vm.VCPUs[idx].Initialized {
		rInitVCPUEexist.hit()
		return int64(hyp.EEXIST)
	}
	post.writableVM(handle).VCPUs[idx].Initialized = true
	rInitVCPUOK.hit()
	return int64(hyp.OK)
}

// specTeardownVM specifies __pkvm_teardown_vm: the VM leaves the
// table; everything it held — metadata backing, its stage 2 tree's own
// frames, its memcache reserves, and every frame its stage 2 mapped —
// enters the reclaim set; the guest stage 2 becomes empty.
func specTeardownVM(post, pre *State, call *CallData) int64 {
	handle := hyp.Handle(call.Arg(pre, 1))

	post.CopyVMs(pre)

	vm, ok := pre.VMs.Table[handle]
	if !ok {
		rTeardownEnoent.hit()
		return int64(hyp.ENOENT)
	}
	for _, vc := range vm.VCPUs {
		if vc.LoadedOn >= 0 {
			rTeardownEbusy.hit()
			return int64(hyp.EBUSY)
		}
	}

	guest := pre.Guests[handle]
	if guest == nil || !guest.Present {
		// The implementation takes the guest lock on this path; if it
		// did not, the recording is missing and the mismatch will
		// surface in the ternary check via an empty expectation.
		guest = &GuestPgt{Present: true, PGT: AbstractPgtable{Footprint: PageSet{}}}
	}

	delete(post.VMs.Table, handle)
	for _, pfn := range vm.Donated {
		post.VMs.Reclaim.Add(pfn)
	}
	for _, vc := range vm.VCPUs {
		for _, pfn := range vc.MC {
			post.VMs.Reclaim.Add(pfn)
		}
	}
	guest.PGT.Footprint.ForEach(func(pfn arch.PFN) {
		post.VMs.Reclaim.Add(pfn)
	})
	for _, ml := range guest.PGT.Mapping.Maplets() {
		if ml.Target.Kind != TargetMapped {
			continue
		}
		post.VMs.Reclaim.AddRange(arch.PhysToPFN(ml.Target.Phys), ml.NrPages)
	}
	// The guest stage 2 is destroyed: present but empty.
	post.Guests[handle] = &GuestPgt{Present: true, PGT: AbstractPgtable{Footprint: PageSet{}}}
	rTeardownOK.hit()
	return int64(hyp.OK)
}

// specVCPULoad specifies __pkvm_vcpu_load: ownership of the vCPU's
// mutable state transfers from the VM-table lock to this physical CPU
// (§3.1) — its memcache moves into the CPU locals, its saved registers
// become the live guest context.
func specVCPULoad(post, pre *State, call *CallData) int64 {
	cpu := call.CPU
	handle := hyp.Handle(call.Arg(pre, 1))
	idx := int(call.Arg(pre, 2))

	if pre.local(cpu).PerCPU.LoadedVM != 0 {
		rLoadEbusyCPU.hit()
		return int64(hyp.EBUSY)
	}

	post.CopyVMs(pre)

	vm, ok := pre.VMs.Table[handle]
	if !ok {
		rLoadEnoent.hit()
		return int64(hyp.ENOENT)
	}
	if idx < 0 || idx >= vm.NrVCPUs {
		rLoadEinval.hit()
		return int64(hyp.EINVAL)
	}
	vc := vm.VCPUs[idx]
	if !vc.Initialized {
		rLoadEnoent.hit()
		return int64(hyp.ENOENT)
	}
	if vc.LoadedOn >= 0 {
		rLoadEbusyVCPU.hit()
		return int64(hyp.EBUSY)
	}

	postVC := &post.writableVM(handle).VCPUs[idx]
	postVC.LoadedOn = cpu
	postVC.MC = nil // ownership moved to the CPU

	l := post.local(cpu)
	l.PerCPU.LoadedVM = handle
	l.PerCPU.LoadedVCPU = idx
	l.GuestRegs = vc.Regs
	l.LoadedMC = append([]arch.PFN(nil), vc.MC...)
	rLoadOK.hit()
	return int64(hyp.OK)
}

// specVCPUPut specifies __pkvm_vcpu_put: the reverse ownership
// transfer.
func specVCPUPut(post, pre *State, call *CallData) int64 {
	cpu := call.CPU
	preL := pre.local(cpu)
	if preL.PerCPU.LoadedVM == 0 {
		rPutEnoent.hit()
		return int64(hyp.ENOENT)
	}
	handle, idx := preL.PerCPU.LoadedVM, preL.PerCPU.LoadedVCPU

	post.CopyVMs(pre)
	if _, ok := pre.VMs.Table[handle]; !ok {
		// The implementation panics here; no post-state to specify.
		return int64(hyp.ENOENT)
	}
	vc := &post.writableVM(handle).VCPUs[idx]
	vc.Regs = preL.GuestRegs
	vc.LoadedOn = -1
	vc.MC = append([]arch.PFN(nil), preL.LoadedMC...)

	l := post.local(cpu)
	l.PerCPU.LoadedVM = 0
	l.PerCPU.LoadedVCPU = -1
	l.GuestRegs = preL.GuestRegs
	l.LoadedMC = nil
	rPutOK.hit()
	return int64(hyp.OK)
}

// specVCPURun specifies __pkvm_vcpu_run, parameterised on the recorded
// guest event (§4.3): which event the guest script produced is
// environment, what the hypervisor does with it is specification.
func specVCPURun(post, pre *State, call *CallData) (int64, bool) {
	cpu := call.CPU
	preL := pre.local(cpu)
	if preL.PerCPU.LoadedVM == 0 {
		rRunEnoent.hit()
		return int64(hyp.ENOENT), true
	}
	if len(call.GuestExits) != 1 {
		return 0, false // no recorded guest event: cannot specify
	}
	ev := call.GuestExits[0]
	handle := preL.PerCPU.LoadedVM

	// The implementation resolves the handle under the vms lock
	// without changing anything.
	post.CopyVMs(pre)

	// Whatever the guest did to its own registers while running at
	// EL1 — loads from racing memory, arithmetic, its program counter
	// — is environment: take the recorded exit context wholesale, and
	// re-specify only the hypervisor-visible registers below.
	post.local(cpu).GuestRegs = call.GuestRegsExit

	switch ev.Op.Kind {
	case hyp.GuestYield:
		rRunYield.hit()
		return hyp.RunExitYield, true

	case hyp.GuestAccess:
		// Whether the access faulted depends on racing table state —
		// recorded, not predicted. The specification constrains the
		// exit protocol: on an abort exit the fault details are in
		// x2/x3.
		if call.Ret == hyp.RunExitMemAbort {
			rRunAccessFault.hit()
			post.WriteGPR(cpu, 2, uint64(ev.Op.IPA))
			post.WriteGPR(cpu, 3, boolToReg(ev.Op.Write))
			return hyp.RunExitMemAbort, true
		}
		rRunAccessOK.hit()
		return hyp.RunExitYield, true

	case hyp.GuestShareHost:
		rRunShareHost.hit()
		errno := specGuestShareHost(post, pre, handle, ev.Op.IPA)
		post.local(cpu).GuestRegs[0] = errno.Reg()
		return hyp.RunExitYield, true

	case hyp.GuestUnshareHost:
		rRunUnshareHost.hit()
		errno := specGuestUnshareHost(post, pre, handle, ev.Op.IPA)
		post.local(cpu).GuestRegs[0] = errno.Reg()
		return hyp.RunExitYield, true
	}
	return 0, false
}

// specGuestShareHost: the guest lends one of its pages to the host.
func specGuestShareHost(post, pre *State, handle hyp.Handle, ipa arch.IPA) hyp.Errno {
	if !arch.PageAligned(uint64(ipa)) {
		return hyp.EINVAL
	}
	post.CopyGuest(pre, handle)
	post.CopyHost(pre)

	guest := pre.Guests[handle]
	if guest == nil || !guest.Present {
		return hyp.EINVAL
	}
	t, ok := guest.PGT.Mapping.Lookup(uint64(ipa))
	if !ok || t.Kind != TargetMapped || t.Attrs.State != arch.StateOwned {
		return hyp.EPERM
	}
	phys := t.Phys
	g := pre.Globals.Globals

	shared := t.Attrs
	shared.State = arch.StateSharedOwned
	post.Guests[handle].PGT.Mapping.Set(uint64(ipa), 1, Mapped(phys, shared))

	post.Host.Annot.Remove(uint64(phys), 1)
	post.Host.Shared.Set(uint64(phys), 1,
		Mapped(phys, hostMemoryAttributes(g.InRAM(phys), arch.StateSharedBorrowed)))
	return hyp.OK
}

// specGuestUnshareHost: the reverse.
func specGuestUnshareHost(post, pre *State, handle hyp.Handle, ipa arch.IPA) hyp.Errno {
	if !arch.PageAligned(uint64(ipa)) {
		return hyp.EINVAL
	}
	post.CopyGuest(pre, handle)
	post.CopyHost(pre)

	guest := pre.Guests[handle]
	if guest == nil || !guest.Present {
		return hyp.EINVAL
	}
	t, ok := guest.PGT.Mapping.Lookup(uint64(ipa))
	if !ok || t.Kind != TargetMapped || t.Attrs.State != arch.StateSharedOwned {
		return hyp.EPERM
	}
	phys := t.Phys

	owned := t.Attrs
	owned.State = arch.StateOwned
	post.Guests[handle].PGT.Mapping.Set(uint64(ipa), 1, Mapped(phys, owned))

	slot := int(handle - hyp.HandleOffset)
	post.Host.Shared.Remove(uint64(phys), 1)
	post.Host.Annot.Set(uint64(phys), 1, Annotated(hyp.GuestOwner(slot)))
	return hyp.OK
}

// specHostMapGuest specifies __pkvm_host_map_guest: a host page is
// donated into the loaded vCPU's VM. The table pages the guest
// mapping consumes come off the CPU-owned memcache; how many is
// memory-management detail, so the specification replays the recorded
// pop/push sequence (§4.3).
func specHostMapGuest(post, pre *State, call *CallData) int64 {
	cpu := call.CPU
	g := pre.Globals.Globals
	pfn := arch.PFN(call.Arg(pre, 1))
	gfn := call.Arg(pre, 2)
	phys := pfn.Phys()
	gpa := gfn << arch.PageShift

	preL := pre.local(cpu)
	if preL.PerCPU.LoadedVM == 0 {
		rMapGuestEnoent.hit()
		return int64(hyp.ENOENT)
	}
	handle := preL.PerCPU.LoadedVM

	if !g.InRAM(phys) || !arch.CanonicalIA(gpa) {
		rMapGuestEinval.hit()
		return int64(hyp.EINVAL)
	}

	post.CopyVMs(pre)
	post.CopyHost(pre)
	post.CopyGuest(pre, handle)

	if _, ok := pre.VMs.Table[handle]; !ok {
		rMapGuestEnoent.hit()
		return int64(hyp.ENOENT)
	}

	// The memcache traffic happens regardless of eventual success
	// (a failed map can still have grown the tree): replay it.
	l := post.local(cpu)
	for _, op := range call.MCOps {
		if op.Free {
			l.LoadedMC = append(l.LoadedMC, op.PFN)
		} else {
			if len(l.LoadedMC) == 0 || l.LoadedMC[len(l.LoadedMC)-1] != op.PFN {
				// Implementation popped something the ghost memcache
				// does not have: a real divergence, surfaced as a
				// locals mismatch by leaving the replay incomplete.
				break
			}
			l.LoadedMC = l.LoadedMC[:len(l.LoadedMC)-1]
		}
	}

	if !ownedExclusivelyByHost(pre, phys) {
		rMapGuestEperm.hit()
		return int64(hyp.EPERM)
	}
	guest := pre.Guests[handle]
	if guest == nil || !guest.Present {
		rMapGuestEinval.hit()
		return int64(hyp.EINVAL)
	}
	if _, exists := guest.PGT.Mapping.Lookup(gpa); exists {
		rMapGuestEexist.hit()
		return int64(hyp.EEXIST)
	}
	if looseNomem(pre, call) {
		rMapGuestNomem.hit()
		return int64(hyp.ENOMEM)
	}

	slot := int(handle - hyp.HandleOffset)
	post.Host.Annot.Set(uint64(phys), 1, Annotated(hyp.GuestOwner(slot)))
	post.Guests[handle].PGT.Mapping.Set(gpa, 1,
		Mapped(phys, arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateOwned}))
	rMapGuestOK.hit()
	return int64(hyp.OK)
}

func boolToReg(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
