package ghost

import (
	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
)

// specHostShareHyp is the executable specification of host_share_hyp —
// the Go rendition of the paper's Fig 5, step for step.
func specHostShareHyp(post, pre *State, call *CallData) int64 {
	g := pre.Globals.Globals

	// (1) Address space conversions.
	pfn := arch.PFN(call.Arg(pre, 1))
	phys := pfn.Phys()
	hostAddr := uint64(phys) // host stage 1 is an identity map
	hypAddr := uint64(phys) + g.HypVAOffset

	// (3) Initialisation of the (partial) post-state: only the parts
	// this hypercall owns.
	post.CopyHost(pre)
	post.CopyPkvm(pre)

	// (2) Permission checks, against the abstract pre-state only.
	if !g.InRAM(phys) {
		rShareEinval.hit()
		return int64(hyp.EINVAL)
	}
	if !ownedExclusivelyByHost(pre, phys) {
		rShareEperm.hit()
		return int64(hyp.EPERM)
	}
	// Loose out-of-memory failure (§4.3): allowed, with no update.
	if looseNomem(pre, call) {
		rShareNomemLoose.hit()
		return int64(hyp.ENOMEM)
	}

	// (4) Construction of abstract mapping attributes.
	isMemory := g.InRAM(phys)
	hostAttrs := hostMemoryAttributes(isMemory, arch.StateSharedOwned)
	hypAttrs := hypMemoryAttributes(isMemory, arch.StateSharedBorrowed)

	// (5) Update abstract mappings with new targets.
	post.Host.Shared.Set(hostAddr, 1, Mapped(phys, hostAttrs))
	if !specFault(SpecBugShareForgetPkvm) {
		post.Pkvm.PGT.Mapping.Set(hypAddr, 1, Mapped(phys, hypAttrs))
	}

	// (6) Epilogue: the dispatcher writes the register state.
	rShareOK.hit()
	return int64(hyp.OK)
}

// specHostUnshareHyp specifies host_unshare_hyp: the share is revoked,
// both sides of it disappear from the abstract state.
func specHostUnshareHyp(post, pre *State, call *CallData) int64 {
	g := pre.Globals.Globals
	pfn := arch.PFN(call.Arg(pre, 1))
	phys := pfn.Phys()
	hypAddr := uint64(phys) + g.HypVAOffset

	post.CopyHost(pre)
	post.CopyPkvm(pre)

	if !g.InRAM(phys) {
		rUnshareEinval.hit()
		return int64(hyp.EINVAL)
	}
	// The page must currently be shared by the host (not borrowed
	// from a guest, not unshared).
	t, ok := pre.Host.Shared.Lookup(uint64(phys))
	if !ok || t.Kind != TargetMapped || t.Attrs.State != arch.StateSharedOwned {
		rUnshareEperm.hit()
		return int64(hyp.EPERM)
	}

	post.Host.Shared.Remove(uint64(phys), 1)
	post.Pkvm.PGT.Mapping.Remove(hypAddr, 1)
	rUnshareOK.hit()
	return int64(hyp.OK)
}

// specHostDonateHyp specifies host_donate_hyp: ownership of the range
// transfers outright — annotations appear on the host side, owned
// mappings on the hypervisor side.
func specHostDonateHyp(post, pre *State, call *CallData) int64 {
	g := pre.Globals.Globals
	pfn := arch.PFN(call.Arg(pre, 1))
	nr := call.Arg(pre, 2)
	phys := pfn.Phys()

	post.CopyHost(pre)
	post.CopyPkvm(pre)

	if nr == 0 || nr > hyp.MaxDonate || !g.InRAM(phys) ||
		!g.InRAM(phys+arch.PhysAddr(nr<<arch.PageShift)-1) {
		rDonateEinval.hit()
		return int64(hyp.EINVAL)
	}
	for i := uint64(0); i < nr; i++ {
		if !ownedExclusivelyByHost(pre, phys+arch.PhysAddr(i<<arch.PageShift)) {
			rDonateEperm.hit()
			return int64(hyp.EPERM)
		}
	}
	if looseNomem(pre, call) {
		rDonateNomemLoose.hit()
		return int64(hyp.ENOMEM)
	}

	post.Host.Annot.Set(uint64(phys), nr, Annotated(hyp.IDHyp))
	post.Pkvm.PGT.Mapping.Set(uint64(phys)+g.HypVAOffset, nr,
		Mapped(phys, hypMemoryAttributes(true, arch.StateOwned)))
	rDonateOK.hit()
	return int64(hyp.OK)
}

// specHostReclaimPage specifies host_reclaim_page: a page of a
// torn-down VM returns to the host — out of the reclaim set, its
// ownership annotation cleared.
func specHostReclaimPage(post, pre *State, call *CallData) int64 {
	pfn := arch.PFN(call.Arg(pre, 1))
	phys := pfn.Phys()

	post.CopyVMs(pre)
	post.CopyHost(pre)

	if !pre.VMs.Reclaim.Contains(pfn) {
		rReclaimEperm.hit()
		return int64(hyp.EPERM)
	}
	post.VMs.Reclaim.Remove(pfn)
	// The page returns to exclusive host ownership whatever its prior
	// role: ownership annotations are cleared, and if the dead guest
	// had shared it back to the host, the borrowed mapping reverts to
	// a plain owned one (which the abstraction then drops).
	post.Host.Annot.Remove(uint64(phys), 1)
	if !specFault(SpecBugReclaimForgetShared) {
		post.Host.Shared.Remove(uint64(phys), 1)
	}
	rReclaimOK.hit()
	return int64(hyp.OK)
}

// specTopupVCPUMemcache specifies the memcache topup. The donation
// list lives in host-owned memory, so the specification replays the
// recorded READ_ONCE next-pointers (§4.3) through the same abstract
// checks the implementation must make; a failure mid-way leaves the
// earlier donations in place, exactly as the implementation does.
func specTopupVCPUMemcache(post, pre *State, call *CallData) int64 {
	g := pre.Globals.Globals
	handle := hyp.Handle(call.Arg(pre, 1))
	idx := int(call.Arg(pre, 2))
	head := arch.PhysAddr(call.Arg(pre, 3))
	nr := call.Arg(pre, 4)

	post.CopyVMs(pre)
	post.CopyHost(pre)

	if nr > hyp.MemcacheCapPages {
		rTopupEinval.hit()
		return int64(hyp.EINVAL)
	}
	vm, ok := pre.VMs.Table[handle]
	if !ok {
		rTopupEnoent.hit()
		return int64(hyp.ENOENT)
	}
	if idx < 0 || idx >= vm.NrVCPUs {
		rTopupEinval.hit()
		return int64(hyp.EINVAL)
	}
	if !vm.VCPUs[idx].Initialized {
		rTopupEnoent.hit()
		return int64(hyp.ENOENT)
	}
	if vm.VCPUs[idx].LoadedOn >= 0 {
		rTopupEbusy.hit()
		return int64(hyp.EBUSY)
	}

	vcpu := &post.writableVM(handle).VCPUs[idx]
	addr := head
	readIdx := 0
	for i := uint64(0); i < nr; i++ {
		if !arch.PageAligned(uint64(addr)) {
			rTopupLoopEinval.hit()
			return int64(hyp.EINVAL)
		}
		page := arch.PhysAddr(arch.AlignDown(uint64(addr)))
		if !g.InRAM(page) {
			rTopupLoopEinval.hit()
			return int64(hyp.EINVAL)
		}
		// Check against the evolving post-state: donating the same
		// page twice in one list must fail on the second.
		if _, bad := post.Host.Annot.Lookup(uint64(page)); bad {
			rTopupLoopEperm.hit()
			return int64(hyp.EPERM)
		}
		if _, bad := post.Host.Shared.Lookup(uint64(page)); bad {
			rTopupLoopEperm.hit()
			return int64(hyp.EPERM)
		}
		next, haveRead := call.NextRead(&readIdx)
		if !haveRead {
			// The implementation performed fewer host reads than this
			// replay requires: it diverged from the specification.
			return int64(hyp.EINVAL)
		}
		post.Host.Annot.Set(uint64(page), 1, Annotated(hyp.IDHyp))
		vcpu.MC = append(vcpu.MC, arch.PhysToPFN(page))
		addr = arch.PhysAddr(next)
	}
	rTopupOK.hit()
	return int64(hyp.OK)
}
