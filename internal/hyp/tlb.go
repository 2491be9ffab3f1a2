package hyp

import (
	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/arch"
)

// This file bridges the pgtable break-before-make notifications to the
// system's software TLB (tagging each with the owning component's
// VMID) and provides the hardware-translation helpers the simulated
// accesses go through. TLBI points, per pKVM's maintenance discipline:
//
//   - host_share_hyp / host_unshare_hyp / host_reclaim_page /
//     guest_share / guest_unshare: the host stage 2 entry changes
//     attributes or becomes an annotation — the pgtable mutation emits
//     the TLBI between break and make (hostTLBI).
//   - host_donate_hyp and the hyp-side map/unmap of share/unshare: the
//     hyp stage 1 changes (hypTLBI).
//   - guest stage 2 mutations (hostMapGuest, guestShareHost,
//     guestUnshareHost): guestTLBI with the VM's own VMID.
//   - teardown_vm: the whole stage 2 is destroyed without per-entry
//     unmaps, so teardownVM issues the by-VMID invalidation itself
//     (TLBI VMALLS12E1IS) under the guest lock.
//
// BugUnshareSkipTLBI suppresses hostTLBI inside the unshare paths'
// host-table mutation (hostTLBIOff), modelling the canonical
// forgotten-maintenance bug: the entry is rewritten but a cached
// translation of it survives, which the ghost oracle's coherence check
// reports as FailStaleTLB at the unshare's own host-lock release.

// TLB returns the system's software TLB. The ghost oracle reads it
// for the stale-entry coherence check.
func (hv *Hypervisor) TLB() *arch.TLB { return hv.tlb }

// VMIDForHandle returns the VMID of the guest with the given handle
// (VMIDHyp for an out-of-range handle, which tags nothing a guest
// uses). Pure slot arithmetic: usable without any lock.
func VMIDForHandle(h Handle) arch.VMID {
	slot := h.slot(MaxVMs)
	if slot < 0 {
		return VMIDHyp
	}
	return VMIDForSlot(slot)
}

// hostTLBI invalidates host stage 2 translations for one
// break-before-make sequence at the mutation's TLBI point p, unless the
// injected skipped-TLBI bug has opened its suppression window (then
// nothing is invalidated and nothing crossed).
//
//ghost:requires lock=host
func (hv *Hypervisor) hostTLBI(p *preempt.Point, ia, size uint64) {
	if hv.hostTLBIOff {
		return
	}
	hv.tlb.InvalidateRange(p, VMIDHost, ia, size)
}

// hypTLBI invalidates hypervisor stage 1 translations for one
// break-before-make sequence.
//
//ghost:requires lock=hyp
func (hv *Hypervisor) hypTLBI(p *preempt.Point, ia, size uint64) {
	hv.tlb.InvalidateRange(p, VMIDHyp, ia, size)
}

// guestTLBI builds the invalidation callback for one guest's stage 2,
// tagged with its VMID. The callback fires inside guest-table
// mutations, which hold the guest lock.
func (hv *Hypervisor) guestTLBI(vmid arch.VMID) func(p *preempt.Point, ia, size uint64) {
	return func(p *preempt.Point, ia, size uint64) {
		hv.tlb.InvalidateRange(p, vmid, ia, size)
	}
}

// TranslateHost is the hardware's host stage 2 translation for an
// access on cpu, through the TLB. Like real host loads and stores it
// takes no lock — the MMU does not serialize against the hypervisor —
// which is exactly what makes a skipped TLBI observable.
func (hv *Hypervisor) TranslateHost(cpu int, ipa arch.IPA, acc arch.Access) (arch.WalkResult, *arch.Fault) {
	return hv.tlb.Walk(cpu, hv.hostPGT.Root(), arch.Stage2, VMIDHost, uint64(ipa), acc)
}

// translateGuest is the hardware's guest stage 2 translation for an
// access by the vCPU running on cpu.
func (hv *Hypervisor) translateGuest(cpu int, vm *VM, ipa arch.IPA, acc arch.Access) (arch.WalkResult, *arch.Fault) {
	return hv.tlb.Walk(cpu, vm.PGT.Root(), arch.Stage2, vm.VMID, uint64(ipa), acc)
}
