package ghost

import (
	"fmt"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
)

// InterpretPgtable computes the abstraction of the page table rooted
// at root: a complete traversal (in contrast to the hardware's
// single-address walk) that interprets every descriptor and builds the
// extensional finite map plus the tree's own memory footprint — the
// paper's _interpret_pgtable (Fig 2).
//
// It reads raw descriptors through the architecture model only: the
// hypervisor's walker code is implementation, not specification.
func InterpretPgtable(m *arch.Memory, root arch.PhysAddr) AbstractPgtable {
	var out AbstractPgtable
	interpretLevel(m, root, arch.StartLevel, 0, &out)
	return out
}

func interpretLevel(m *arch.Memory, table arch.PhysAddr, level int, vaPartial uint64, out *AbstractPgtable) {
	out.Footprint.Add(arch.PhysToPFN(table))
	nrPages := arch.LevelPages(level)
	for idx := 0; idx < arch.PTEsPerTable; idx++ {
		vaNew := vaPartial | uint64(idx)<<arch.LevelShift(level)
		pte := m.ReadPTE(table, idx)
		switch pte.Kind(level) {
		case arch.EKTable:
			interpretLevel(m, pte.TableAddr(), level+1, vaNew, out)
		case arch.EKBlock, arch.EKPage:
			out.Mapping.Extend(vaNew, nrPages, Mapped(pte.OutputAddr(level), pte.Attrs()))
		case arch.EKAnnotated:
			out.Mapping.Extend(vaNew, nrPages, Annotated(pte.OwnerID()))
		case arch.EKInvalid:
			// Unmapped, unowned: not part of the extension.
		case arch.EKReserved:
			// A reserved encoding can only come from corruption; make
			// it visible as an impossible annotation.
			out.Mapping.Extend(vaNew, nrPages, Annotated(0xFF))
		}
	}
}

// AbstractHyp computes the ghost of the hypervisor's own stage 1.
// Caller holds the pkvm lock.
//
//ghost:requires lock=hyp
func AbstractHyp(hv *hyp.Hypervisor) Pkvm {
	return Pkvm{Present: true, PGT: InterpretPgtable(hv.Mem, hv.HypPGTRoot())}
}

// HostInvariantError reports a host stage 2 entry that violates the
// legal-mapping bounds of the loose host specification (paper §3.1):
// an incidentally-mapped host-owned page must be an identity mapping
// of memory the host may legally reach, with the default attributes.
type HostInvariantError struct {
	IPA    uint64
	Target Target
	Reason string
}

func (e *HostInvariantError) Error() string {
	return fmt.Sprintf("host stage 2 invariant violated at ipa %#x (%s): %s", e.IPA, e.Target, e.Reason)
}

// AbstractHost computes the ghost of the host stage 2: the Annot and
// Shared mappings, checking on the way that every dropped
// plainly-owned mapping is legal. Caller holds the host lock.
//
//ghost:requires lock=host
func AbstractHost(hv *hyp.Hypervisor) (Host, error) {
	host, _, err := AbstractHostWithFootprint(hv)
	return host, err
}

// AbstractHostWithFootprint additionally returns the host table's own
// memory footprint, which the separation check consumes; computing it
// here avoids a second full interpretation per lock release.
//
//ghost:requires lock=host
func AbstractHostWithFootprint(hv *hyp.Hypervisor) (Host, PageSet, error) {
	full := InterpretPgtable(hv.Mem, hv.HostPGTRoot())
	host, violation := deriveHost(hv, &full)
	return host, full.Footprint, violation
}

// deriveHost projects a full host stage 2 abstraction onto the loose
// ghost_host components — Annot and Shared — checking on the way that
// every dropped plainly-owned mapping is legal. Shared between the
// uncached reference path above and the recorder's host cache.
func deriveHost(hv *hyp.Hypervisor, full *AbstractPgtable) (Host, error) {
	out := Host{Present: true}
	var violation error
	// Size the two derived mappings up front; coalescing only shrinks
	// them, so the class counts are exact upper bounds.
	var nAnnot, nShared int
	for _, ml := range full.Mapping.Maplets() {
		switch ml.Target.Kind {
		case TargetAnnotated:
			nAnnot++
		case TargetMapped:
			if s := ml.Target.Attrs.State; s == arch.StateSharedOwned || s == arch.StateSharedBorrowed {
				nShared++
			}
		}
	}
	out.Annot.Grow(nAnnot)
	out.Shared.Grow(nShared)
	for _, ml := range full.Mapping.Maplets() {
		switch ml.Target.Kind {
		case TargetAnnotated:
			out.Annot.Extend(ml.VA, ml.NrPages, ml.Target)
		case TargetMapped:
			switch ml.Target.Attrs.State {
			case arch.StateSharedOwned, arch.StateSharedBorrowed:
				out.Shared.Extend(ml.VA, ml.NrPages, ml.Target)
			case arch.StateOwned:
				// Mapping-on-demand territory: dropped from the
				// abstraction, but it must be legal.
				if err := checkHostOwnedLegal(hv, ml); err != nil && violation == nil {
					violation = err
				}
			}
		}
	}
	return out, violation
}

// checkHostOwnedLegal checks a plainly-owned host mapping against the
// loose specification's upper bound: identity, inside the physical
// map, with the default attributes for its region. The check works on
// whole maplets, not pages: a maplet has uniform attributes by
// construction, so it is legal iff it lies entirely within one region
// whose default attributes it carries — a constant-time test that
// keeps abstraction cost independent of block size (1GB demand blocks
// would otherwise cost 256k page iterations per recording).
func checkHostOwnedLegal(hv *hyp.Hypervisor, ml Maplet) error {
	if uint64(ml.Target.Phys) != ml.VA {
		return &HostInvariantError{IPA: ml.VA, Target: ml.Target, Reason: "not an identity mapping"}
	}
	first := ml.Target.Phys
	last := ml.Target.Phys + arch.PhysAddr((ml.NrPages-1)<<arch.PageShift)
	var want arch.Attrs
	switch {
	case hv.Mem.InRAM(first) && hv.Mem.InRAM(last):
		want = arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateOwned}
	case hv.Mem.InMMIO(first) && hv.Mem.InMMIO(last):
		want = arch.Attrs{Perms: arch.PermRW, Mem: arch.MemDevice, State: arch.StateOwned}
	default:
		// Straddles a region boundary or leaves the physical map —
		// no single legal attribute set could cover it.
		return &HostInvariantError{IPA: ml.VA, Target: ml.Target,
			Reason: "maps outside a single physical region"}
	}
	if ml.Target.Attrs != want {
		return &HostInvariantError{IPA: ml.VA, Target: ml.Target,
			Reason: fmt.Sprintf("attributes %v, legal bound %v", ml.Target.Attrs, want)}
	}
	return nil
}

// AbstractVMs computes the ghost of the VM table: metadata of every
// live VM plus the reclaim set. Caller holds the vms lock.
//
//ghost:requires lock=vms
func AbstractVMs(hv *hyp.Hypervisor) VMs {
	out := VMs{Present: true, Table: make(map[hyp.Handle]*VMInfo), Reclaim: abstractReclaim(hv)}
	for slot := 0; slot < hyp.MaxVMs; slot++ {
		if vm := hv.VMSnapshot(slot); vm != nil {
			out.Table[vm.Handle] = abstractVM(vm)
		}
	}
	return out
}

// abstractVM records one live VM's metadata. Caller holds the vms
// lock.
//
//ghost:requires lock=vms
func abstractVM(vm *hyp.VM) *VMInfo {
	info := &VMInfo{Handle: vm.Handle, NrVCPUs: vm.NrVCPUs, Donated: vm.DonatedPages()}
	info.VCPUs = make([]VCPUInfo, 0, len(vm.VCPUs))
	for _, vc := range vm.VCPUs {
		vi := VCPUInfo{
			Initialized: vc.Initialized,
			LoadedOn:    vc.LoadedOn,
			Regs:        vc.Regs,
		}
		// A loaded vCPU's memcache is owned by its physical CPU, not
		// by the VM-table lock: it appears in that CPU's locals
		// instead.
		if vc.LoadedOn < 0 {
			vi.MC = vc.MC.Pages()
		}
		info.VCPUs = append(info.VCPUs, vi)
	}
	return info
}

// abstractReclaim records the reclaim set. Caller holds the vms lock.
//
//ghost:requires lock=vms
func abstractReclaim(hv *hyp.Hypervisor) PageSet {
	out := PageSet{}
	for _, pfn := range hv.ReclaimablePFNs() {
		out.Add(pfn)
	}
	return out
}

// AbstractGuest computes the ghost of one VM's stage 2. Caller holds
// that VM's lock. After teardown the table is gone; the abstraction is
// then present-but-empty.
//
// The VMSnapshot call below runs under the guest lock, not the vms
// lock: the slot pointer is stable while the guest lock pins the VM,
// the sanctioned exception VMSnapshot's contract documents.
//
//ghost:requires lock=guest
//ghostlint:ignore lockcheck VMSnapshot under the guest lock reads a slot pinned by that lock (see VMSnapshot contract)
func AbstractGuest(hv *hyp.Hypervisor, h hyp.Handle) GuestPgt {
	slot := int(h - hyp.HandleOffset)
	vm := hv.VMSnapshot(slot)
	if vm == nil || vm.PGT == nil {
		return GuestPgt{Present: true, PGT: AbstractPgtable{Footprint: PageSet{}}}
	}
	return GuestPgt{Present: true, PGT: InterpretPgtable(hv.Mem, vm.PGT.Root())}
}

// AbstractLocal records one physical CPU's thread-local state.
func AbstractLocal(hv *hyp.Hypervisor, cpu int) CPULocal {
	c := hv.CPUs[cpu]
	return CPULocal{
		Present:   true,
		HostRegs:  c.HostRegs,
		GuestRegs: c.GuestRegs,
		PerCPU:    hv.PerCPUState(cpu),
		LoadedMC:  hv.LoadedMCPages(cpu),
	}
}

// AbstractGlobals copies the boot constants into the ghost state.
func AbstractGlobals(hv *hyp.Hypervisor) Globals {
	return Globals{Present: true, Globals: hv.Globals()}
}
