package hyp

import (
	"errors"
	"fmt"

	"ghostspec/internal/arch"
	"ghostspec/internal/pgtable"
)

// pageOwnership is the hypervisor's decoded view of who holds a page
// according to a host stage 2 entry (pKVM's host_get_page_state).
type pageOwnership struct {
	// owner is 0 for the host, IDHyp, or a guest owner ID.
	owner uint8
	// state is the share state when the entry is valid; StateOwned
	// for invalid unannotated entries (the host's default ownership).
	state arch.PageState
	// mapped reports whether the entry is a valid mapping.
	mapped bool
}

// hostOwnership decodes a host stage 2 leaf. The host logically owns
// everything that is not annotated away: an invalid unannotated entry
// is host-owned, exclusive, simply not faulted in yet.
func hostOwnership(pte arch.PTE, level int) pageOwnership {
	switch pte.Kind(level) {
	case arch.EKAnnotated:
		return pageOwnership{owner: pte.OwnerID(), state: arch.StateOwned}
	case arch.EKBlock, arch.EKPage:
		return pageOwnership{owner: 0, state: pte.Attrs().State, mapped: true}
	default:
		return pageOwnership{owner: 0, state: arch.StateOwned}
	}
}

// hostCheckState walks the host stage 2 over [ipa, ipa+size) and
// checks every page is host-owned with the wanted share state — the
// paper's __check_page_state_visitor walk from do_share (Fig 4).
//
//ghost:requires lock=host
func (hv *Hypervisor) hostCheckState(ipa arch.IPA, size uint64, want arch.PageState) Errno {
	err := hv.hostPGT.Walk(uint64(ipa), size, &pgtable.Visitor{
		Flags: pgtable.VisitLeaf,
		Fn: func(ctx *pgtable.VisitCtx) error {
			own := hostOwnership(ctx.PTE, ctx.Level)
			if own.owner != 0 || own.state != want {
				return EPERM
			}
			return nil
		},
	})
	if err == nil {
		return OK
	}
	if e, ok := err.(Errno); ok {
		return e
	}
	return EINVAL
}

// hostDefaultAttrs returns the attributes a host mapping gets: normal
// RWX for DRAM, device RW for MMIO (the two-point policy of §4.2
// step 4).
func (hv *Hypervisor) hostDefaultAttrs(pa arch.PhysAddr, state arch.PageState) arch.Attrs {
	if hv.Mem.InRAM(pa) {
		return arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: state}
	}
	return arch.Attrs{Perms: arch.PermRW, Mem: arch.MemDevice, State: state}
}

// hypAttrs returns the attributes for the hypervisor's own stage 1
// mappings of memory with the given share state: read-write,
// never executable (the paper's diff shows shared pages as "SB RW- M").
func hypAttrs(state arch.PageState, mem arch.MemType) arch.Attrs {
	return arch.Attrs{Perms: arch.PermRW, Mem: mem, State: state}
}

// hostIDMap force-installs an identity mapping over [ipa, ipa+size)
// in the host stage 2 with the given share state (pKVM's
// host_stage2_idmap_locked). Caller holds the host lock.
//
//ghost:requires lock=host
func (hv *Hypervisor) hostIDMap(ipa arch.IPA, size uint64, state arch.PageState) Errno {
	attrs := hv.hostDefaultAttrs(arch.PhysAddr(ipa), state)
	if err := hv.hostPGT.Map(uint64(ipa), size, arch.PhysAddr(ipa), attrs, true); err != nil {
		return errnoOf(err)
	}
	return OK
}

// hostSetOwner force-annotates [ipa, ipa+size) in the host stage 2
// with an owner (pKVM's host_stage2_set_owner_locked); owner 0 gives
// the range back to the host as unmapped default-owned memory.
//
//ghost:requires lock=host
func (hv *Hypervisor) hostSetOwner(ipa arch.IPA, size uint64, owner uint8) Errno {
	if err := hv.hostPGT.Annotate(uint64(ipa), size, owner); err != nil {
		return errnoOf(err)
	}
	return OK
}

// hypCheckUnmapped verifies the hypervisor's own stage 1 has no
// mapping over [va, va+size); sharing into an occupied hyp range is an
// implementation invariant violation.
//
//ghost:requires lock=hyp
func (hv *Hypervisor) hypCheckUnmapped(va arch.VirtAddr, size uint64) Errno {
	err := hv.hypPGT.Walk(uint64(va), size, &pgtable.Visitor{
		Flags: pgtable.VisitLeaf,
		Fn: func(ctx *pgtable.VisitCtx) error {
			if ctx.PTE.Valid() {
				return EEXIST
			}
			return nil
		},
	})
	if err == nil {
		return OK
	}
	if e, ok := err.(Errno); ok {
		return e
	}
	return EINVAL
}

// hypCheckState verifies every page of the hypervisor stage 1 range
// is mapped with the given share state.
//
//ghost:requires lock=hyp
func (hv *Hypervisor) hypCheckState(va arch.VirtAddr, size uint64, want arch.PageState) Errno {
	err := hv.hypPGT.Walk(uint64(va), size, &pgtable.Visitor{
		Flags: pgtable.VisitLeaf,
		Fn: func(ctx *pgtable.VisitCtx) error {
			if !ctx.PTE.Valid() || ctx.PTE.Attrs().State != want {
				return EPERM
			}
			return nil
		},
	})
	if err == nil {
		return OK
	}
	if e, ok := err.(Errno); ok {
		return e
	}
	return EINVAL
}

// errnoOf maps pgtable errors to the hypercall errno space.
func errnoOf(err error) Errno {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, pgtable.ErrNoMem):
		return ENOMEM
	case errors.Is(err, pgtable.ErrExists):
		return EEXIST
	case errors.Is(err, pgtable.ErrRange):
		return ERANGE
	default:
		return EINVAL
	}
}

// readOnceHost performs a READ_ONCE of host-owned memory: the value is
// under concurrent host control, so the instrumentation records it as
// an environment parameter of the specification (paper §4.3).
//
//ghost:requires lock=host
func (hv *Hypervisor) readOnceHost(cpu int, pa arch.PhysAddr) uint64 {
	v := hv.Mem.Read64(pa)
	hv.instr.ReadOnce(cpu, pa, v)
	return v
}

// clearPage zeroes PageSize bytes starting at addr, which must be
// 8-byte aligned but — crucially for the memcache alignment bug — not
// necessarily page aligned: an unaligned addr zeroes the tail of one
// frame and the head of the next.
func (hv *Hypervisor) clearPage(addr arch.PhysAddr) {
	hv.Mem.ZeroWords(addr, arch.PageSize/8)
}

// hypPanic raises an internal hypervisor panic: unrecoverable on real
// hardware, recovered by HandleTrap for the test harness.
func (hv *Hypervisor) hypPanic(cpu int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	hv.instr.HypPanic(cpu, msg)
	panic(&PanicError{CPU: cpu, Msg: msg})
}
