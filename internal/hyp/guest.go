package hyp

import (
	"ghostspec/internal/arch"
	"ghostspec/internal/pgtable"
)

// MemcacheCapPages bounds one topup request; re-exported from the
// memcache so the specification side shares the constant.
const MemcacheCapPages = 128

// newTableFromDonation builds a VM's stage 2 table, drawing the root
// page from the VM's donated frames. Guests are mapped at page
// granularity: donations arrive a page at a time.
//
//ghost:requires lock=vms
func newTableFromDonation(hv *Hypervisor, vm *VM) (*pgtable.Table, error) {
	pgt, err := pgtable.New("guest_s2:"+vm.Handle.String(), hv.Mem, arch.Stage2,
		donationAllocator{pages: &vm.donated}, arch.LastLevel)
	if err != nil {
		return nil, err
	}
	// One aggregate gauge across all guests: per-handle labels would
	// grow the registry without bound as VMs come and go.
	pgt.SetOnTablePage(liveTableGauge(telGuestTablesLive))
	pgt.SetTLBI(hv.guestTLBI(vm.VMID))
	pgt.SetTLB(hv.tlb, vm.VMID)
	hv.instrument(pgt)
	return pgt, nil
}

// memcacheAllocator feeds a guest table from the running vCPU's
// donated reserve, reporting each pop and push to the instrumentation
// as specification environment data.
type memcacheAllocator struct {
	hv   *Hypervisor
	cpu  int
	vcpu *VCPU
}

func (a memcacheAllocator) AllocTablePage() (arch.PFN, bool) {
	pfn, ok := a.vcpu.MC.Pop()
	if ok {
		a.hv.instr.MemcacheAlloc(a.cpu, pfn)
	}
	return pfn, ok
}

func (a memcacheAllocator) FreeTablePage(pfn arch.PFN) {
	a.vcpu.MC.Push(pfn)
	a.hv.instr.MemcacheFree(a.cpu, pfn)
}

// collectAllocator is the teardown allocator: it cannot allocate, and
// everything freed into it is appended to the frames bound for the
// reclaim set.
type collectAllocator struct {
	pfns *[]arch.PFN
}

func (c collectAllocator) AllocTablePage() (arch.PFN, bool) { return 0, false }
func (c collectAllocator) FreeTablePage(pfn arch.PFN)       { *c.pfns = append(*c.pfns, pfn) }

// guestMappedFrames returns the physical frames the guest stage 2
// currently maps — the guest-owned memory that must be reclaimable
// after teardown. Caller holds the guest lock.
//
//ghost:requires lock=guest
func guestMappedFrames(vm *VM) []arch.PFN {
	var out []arch.PFN
	_ = vm.PGT.Walk(0, 1<<arch.IABits, &pgtable.Visitor{
		Flags: pgtable.VisitLeaf,
		Fn: func(ctx *pgtable.VisitCtx) error {
			if ctx.PTE.Valid() {
				base := arch.PhysToPFN(ctx.PTE.OutputAddr(ctx.Level))
				for i := uint64(0); i < ctx.NrPages; i++ {
					out = append(out, base+arch.PFN(i))
				}
			}
			return nil
		},
	})
	return out
}
