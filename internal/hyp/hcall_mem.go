package hyp

import (
	"slices"

	"ghostspec/internal/arch"
	"ghostspec/internal/faults"
)

// hostShareHyp implements __pkvm_host_share_hyp (paper §4.1, Fig 3-4):
// the host grants the hypervisor read/write access to one of its
// pages, e.g. to pass hypercall struct arguments through it.
func (hv *Hypervisor) hostShareHyp(cpu int, pfn arch.PFN) Errno {
	phys := pfn.Phys()
	ipa := arch.IPA(phys) // host stage 1 is an identity map
	hypVA := HypVA(phys)

	if !hv.Mem.InRAM(phys) {
		return EINVAL
	}

	hv.lockHost(cpu, hostShareHypLockHost)
	hv.lockHyp(cpu, hostShareHypLockHyp)
	defer func() {
		hv.unlockHyp(cpu, hostShareHypUnlockHyp)
		hv.unlockHost(cpu, hostShareHypUnlockHost)
	}()
	return hv.doShareHyp(ipa, hypVA, phys)
}

// doShareHyp is the do_share of Fig 4, with its three walks: check the
// host page state, install the host's shared mapping, install the
// hypervisor's borrowed mapping.
//
//ghost:requires lock=host lock=hyp
func (hv *Hypervisor) doShareHyp(ipa arch.IPA, hypVA arch.VirtAddr, phys arch.PhysAddr) Errno {
	// Walk 1: __check_page_state_visitor — the page must be owned
	// exclusively by the host.
	if !hv.Inj.Enabled(faults.BugShareSkipStateCheck) {
		if ret := hv.hostCheckState(ipa, arch.PageSize, arch.StateOwned); ret != OK {
			if hv.Inj.Enabled(faults.BugWrongReturnValue) {
				return OK // report success on the failure path
			}
			return ret
		}
		if ret := hv.hypCheckUnmapped(hypVA, arch.PageSize); ret != OK {
			return ret
		}
	}

	// Walk 2: host_initiate_share — identity mapping marked
	// shared-owned in the host's table.
	if ret := hv.hostIDMap(ipa, arch.PageSize, arch.StateSharedOwned); ret != OK {
		return ret
	}

	// Walk 3: hyp_complete_share — borrowed mapping in the
	// hypervisor's own table.
	attrs := hypAttrs(arch.StateSharedBorrowed, arch.MemNormal)
	if hv.Inj.Enabled(faults.BugShareWrongPerms) {
		attrs.Perms = arch.PermRWX // executable borrowed mapping
	}
	if err := hv.hypPGT.Map(uint64(hypVA), arch.PageSize, phys, attrs, true); err != nil {
		return errnoOf(err)
	}
	return OK
}

// hostUnshareHyp implements __pkvm_host_unshare_hyp: the host revokes
// a previous share, returning the page to exclusive host ownership.
func (hv *Hypervisor) hostUnshareHyp(cpu int, pfn arch.PFN) Errno {
	phys := pfn.Phys()
	ipa := arch.IPA(phys)
	hypVA := HypVA(phys)

	if !hv.Mem.InRAM(phys) {
		return EINVAL
	}

	hv.lockHost(cpu, hostUnshareHypLockHost)
	hv.lockHyp(cpu, hostUnshareHypLockHyp)
	// Deferred (not inline) unlocks: doUnshareHyp can reach hypPanic
	// on a host/hyp state mismatch, and the panic must not leak the
	// locks past the trap handler's recovery point.
	defer func() {
		hv.unlockHyp(cpu, hostUnshareHypUnlockHyp)
		hv.unlockHost(cpu, hostUnshareHypUnlockHost)
	}()
	return hv.doUnshareHyp(cpu, ipa, hypVA)
}

// doUnshareHyp reverses doShareHyp's three walks; a host/hyp state
// mismatch is an internal invariant violation and panics.
//
//ghost:requires lock=host lock=hyp
func (hv *Hypervisor) doUnshareHyp(cpu int, ipa arch.IPA, hypVA arch.VirtAddr) Errno {
	if ret := hv.hostCheckState(ipa, arch.PageSize, arch.StateSharedOwned); ret != OK {
		return ret
	}
	if ret := hv.hypCheckState(hypVA, arch.PageSize, arch.StateSharedBorrowed); ret != OK {
		// Host and hypervisor tables disagree about the share: a
		// broken internal invariant, not a host error.
		hv.hypPanic(cpu, "unshare: host/hyp share state mismatch at %#x", uint64(ipa))
	}
	// The host entry flips SharedOwned→Owned: a live translation
	// changes, so the mutation's break-before-make must invalidate any
	// cached walk of it. The injected bug suppresses exactly that TLBI
	// (both flags run under the host lock, like the callback).
	if hv.Inj.Enabled(faults.BugUnshareSkipTLBI) {
		hv.hostTLBIOff = true
	}
	ret := hv.hostIDMap(ipa, arch.PageSize, arch.StateOwned)
	hv.hostTLBIOff = false
	if ret != OK {
		return ret
	}
	if !hv.Inj.Enabled(faults.BugUnshareLeaveMapping) {
		if err := hv.hypPGT.Unmap(uint64(hypVA), arch.PageSize); err != nil {
			return errnoOf(err)
		}
	}
	return OK
}

// MaxDonate bounds a single host_donate_hyp request.
const MaxDonate = 64

// MaxShareRange bounds a single host_share_hyp_range request.
const MaxShareRange = 32

// hostShareHypRange shares a contiguous run of host pages with the
// hypervisor, one page per locking phase: the host and hyp locks are
// taken and released for every page, so other hypercalls interleave
// between phases. This is the "executes in phases, releasing and
// retaking locks" style the paper's monolithic pre/post checking
// cannot handle; the ghost machinery checks it per lock session
// instead (the transactional instrumentation of the extension).
//
// Failure mid-range leaves the earlier pages shared, like the
// partial-success semantics of the real phased hypercalls.
func (hv *Hypervisor) hostShareHypRange(cpu int, pfn arch.PFN, nr uint64) Errno {
	if nr == 0 || nr > MaxShareRange {
		return EINVAL
	}
	for i := uint64(0); i < nr; i++ {
		// One locking phase per page: hostShareHyp takes and releases
		// both locks, so other hypercalls interleave between phases.
		if ret := hv.hostShareHyp(cpu, pfn+arch.PFN(i)); ret != OK {
			if hv.Inj.Enabled(faults.BugShareRangeBadStop) {
				return OK // reports success despite stopping early
			}
			return ret
		}
	}
	return OK
}

// hostDonateHyp implements __pkvm_host_donate_hyp: the host
// transfers ownership of nr contiguous pages to the hypervisor
// outright (used to grow the hypervisor's working memory).
func (hv *Hypervisor) hostDonateHyp(cpu int, pfn arch.PFN, nr uint64) Errno {
	phys := pfn.Phys()
	size := nr << arch.PageShift
	if nr == 0 || nr > MaxDonate || !hv.Mem.InRAM(phys) ||
		!hv.Mem.InRAM(phys+arch.PhysAddr(size)-1) {
		return EINVAL
	}
	ipa := arch.IPA(phys)

	hv.lockHost(cpu, hostDonateHypLockHost)
	hv.lockHyp(cpu, hostDonateHypLockHyp)
	defer func() {
		hv.unlockHyp(cpu, hostDonateHypUnlockHyp)
		hv.unlockHost(cpu, hostDonateHypUnlockHost)
	}()

	if ret := hv.hostCheckState(ipa, size, arch.StateOwned); ret != OK {
		return ret
	}
	if ret := hv.hypCheckUnmapped(HypVA(phys), size); ret != OK {
		return ret
	}
	if !hv.Inj.Enabled(faults.BugDonateKeepHostMapping) {
		if ret := hv.hostSetOwner(ipa, size, IDHyp); ret != OK {
			return ret
		}
	}
	attrs := hypAttrs(arch.StateOwned, arch.MemNormal)
	if err := hv.hypPGT.Map(uint64(HypVA(phys)), size, phys, attrs, true); err != nil {
		return errnoOf(err)
	}
	return OK
}

// hostReclaimPage implements __pkvm_host_reclaim_page: after a VM is
// torn down, the host takes back one of the pages that had been
// donated to it. The hypervisor scrubs the page before the host can
// see it.
func (hv *Hypervisor) hostReclaimPage(cpu int, pfn arch.PFN) Errno {
	phys := pfn.Phys()
	ipa := arch.IPA(phys)

	hv.lockVMs(cpu, hostReclaimPageLockVMs)
	hv.lockHost(cpu, hostReclaimPageLockHost)
	defer func() {
		hv.unlockHost(cpu, hostReclaimPageUnlockHost)
		hv.unlockVMs(cpu, hostReclaimPageUnlockVMs)
	}()

	i, ok := slices.BinarySearch(hv.reclaimable, pfn)
	if !ok {
		return EPERM
	}
	hv.clearPage(phys) // scrub guest data
	if !hv.Inj.Enabled(faults.BugReclaimSkipOwnerClear) {
		if ret := hv.hostSetOwner(ipa, arch.PageSize, 0); ret != OK {
			return ret
		}
	}
	hv.reclaimable = slices.Delete(hv.reclaimable, i, i+1)
	return OK
}

// handleHostMemAbort is the host stage 2 fault handler (paper §2):
// pKVM does not map all host memory at initialisation, but fills the
// host's table in lazily on first access — sometimes with a whole
// block. Faults on memory the host does not own are reflected back
// into the host as an injected abort.
func (hv *Hypervisor) handleHostMemAbort(cpu int) {
	fault := hv.CPUs[cpu].Fault
	ipa := arch.IPA(arch.AlignDown(uint64(fault.Addr)))
	pc := hv.percpu[cpu]
	pc.LastAbortInjected = false

	hv.lockHost(cpu, handleHostMemAbortLockHost)
	defer hv.unlockHost(cpu, nil)

	pte, level := hv.hostPGT.GetLeaf(uint64(ipa))
	own := hostOwnership(pte, level)
	switch {
	case own.mapped:
		// Spurious fault: another CPU mapped the page between the
		// fault and taking the lock, or the host retried a
		// permission fault. Robust handling returns and lets the
		// host retry; the paper's bug 4 was a panic here.
		if hv.Inj.Enabled(faults.BugHostFaultRetry) {
			hv.hypPanic(cpu, "host abort: entry for %#x already valid", uint64(ipa))
		}
		return
	case own.owner != 0:
		// Not the host's memory: reflect the fault into the host.
		pc.LastAbortInjected = true
		return
	}

	pa := arch.PhysAddr(ipa)
	if !hv.Mem.InRAM(pa) && !hv.Mem.InMMIO(pa) {
		pc.LastAbortInjected = true
		return
	}

	state := arch.StateOwned
	if hv.Inj.Enabled(faults.BugMapDemandWrongState) {
		state = arch.StateSharedOwned
	}

	// Map the largest block whose containing entry is entirely absent
	// and entirely DRAM — 1GB on big-memory devices, else 2MB, else a
	// single page. The host specification is deliberately loose here
	// (paper §3.1): any legal host mapping is acceptable on exit.
	for _, blockLevel := range []int{1, 2} {
		if level > blockLevel {
			continue // the containing entry at this level is not free
		}
		size := arch.LevelSize(blockLevel)
		base := uint64(ipa) &^ (size - 1)
		if hv.Mem.InRAM(arch.PhysAddr(base)) && hv.Mem.InRAM(arch.PhysAddr(base+size-1)) {
			if ret := hv.hostIDMap(arch.IPA(base), size, state); ret != OK {
				hv.hypPanic(cpu, "host abort: block idmap failed: %v", ret)
			}
			return
		}
	}
	if ret := hv.hostIDMap(ipa, arch.PageSize, state); ret != OK {
		hv.hypPanic(cpu, "host abort: idmap failed: %v", ret)
	}
}
