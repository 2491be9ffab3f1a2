package hyp

import (
	"fmt"
	"slices"

	"ghostspec/internal/arch"
	"ghostspec/internal/mem"
	"ghostspec/internal/pgtable"
	"ghostspec/internal/spinlock"
)

// Handle identifies a VM to the host. Handles start at HandleOffset
// so that stray small integers are never valid handles.
type Handle uint32

// HandleOffset is the value of the first VM slot's handle.
const HandleOffset Handle = 0x1000

func (h Handle) String() string { return fmt.Sprintf("vm%#x", uint32(h)) }

// slot converts a handle to a VM-table slot index, or -1 if out of
// range.
func (h Handle) slot(max int) int {
	if h < HandleOffset || int(h-HandleOffset) >= max {
		return -1
	}
	return int(h - HandleOffset)
}

// Limits on the VM table, matching the small scale of the AVF use
// case.
const (
	// MaxVMs is the number of VM slots.
	MaxVMs = 64
	// MaxVCPUs is the per-VM vCPU limit.
	MaxVCPUs = 8
)

// VMState is the lifecycle state of a VM slot.
type VMState uint8

const (
	// VMNone marks a free slot.
	VMNone VMState = iota
	// VMActive marks a created VM.
	VMActive
	// VMTeardown marks a destroyed VM whose pages the host has not
	// yet fully reclaimed.
	VMTeardown
)

func (s VMState) String() string {
	switch s {
	case VMNone:
		return "none"
	case VMActive:
		return "active"
	case VMTeardown:
		return "teardown"
	}
	return "?"
}

// VCPU is the hypervisor-side state of one virtual CPU.
//
// Ownership: before a vCPU is loaded, its fields are protected by the
// VM-table lock. pkvm_vcpu_load transfers ownership to the loading
// physical CPU; while loaded, only that CPU may touch it (paper §3.1,
// "an additional subtlety").
type VCPU struct {
	Idx         int
	Initialized bool
	// LoadedOn is the physical CPU currently owning this vCPU, or -1.
	LoadedOn int
	// Regs is the saved guest register context while not loaded.
	Regs arch.Regs
	// MC is the page reserve for this vCPU's stage 2 growth.
	MC mem.Memcache
	// pending is the scripted queue of guest events consumed by
	// vcpu_run: the simple stand-in for a guest image.
	pending []GuestOp
	// Program, when set, replaces the scripted queue with a real
	// guest program interpreted by vcpu_run (see guestprog.go).
	Program []Insn
}

// VM is one virtual machine's metadata and stage 2 table.
type VM struct {
	Handle Handle
	State  VMState

	// VMID tags this VM's stage 2 translations in the software TLB;
	// fixed at init_vm from the slot, like the hardware VMID KVM
	// assigns.
	VMID arch.VMID

	// Protected is the pKVM "protected VM" flag; all VMs here are
	// protected (the interesting case for the isolation spec).
	Protected bool

	NrVCPUs int
	VCPUs   []*VCPU

	// Lock protects the VM's stage 2 table (one lock per page table,
	// paper §3.1).
	Lock *spinlock.Lock
	// PGT is the guest stage 2 table; nil after teardown.
	PGT *pgtable.Table

	// donated are the frames the host donated at init_vm for the VM's
	// metadata and root table; returned via reclaim after teardown.
	//ghost:guards lock=vms
	donated []arch.PFN
}

// DonatedPages returns a copy of the VM's remaining donated frames.
// The ghost abstraction of VM metadata records it; callers hold the
// VM-table lock.
//
//ghost:requires lock=vms
func (vm *VM) DonatedPages() []arch.PFN {
	out := make([]arch.PFN, len(vm.donated))
	copy(out, vm.donated)
	return out
}

// DonatedEqual reports whether the VM's remaining donated frames are
// exactly pfns, in order: DonatedPages compared in place, without the
// copy. The incremental ghost abstraction of the VM table uses it to
// confirm a recorded VM is unchanged; callers hold the VM-table lock.
//
//ghost:requires lock=vms
func (vm *VM) DonatedEqual(pfns []arch.PFN) bool {
	return slices.Equal(vm.donated, pfns)
}

// GuestOpKind enumerates scripted guest behaviours.
type GuestOpKind uint8

const (
	// GuestYield exits to the host with an interrupt.
	GuestYield GuestOpKind = iota
	// GuestAccess performs a memory access at IPA, faulting to the
	// host if unmapped (the virtio-style communication path).
	GuestAccess
	// GuestShareHost issues the guest_share_host hypercall for IPA.
	GuestShareHost
	// GuestUnshareHost issues the guest_unshare_host hypercall.
	GuestUnshareHost
)

func (k GuestOpKind) String() string {
	switch k {
	case GuestYield:
		return "yield"
	case GuestAccess:
		return "access"
	case GuestShareHost:
		return "share-host"
	case GuestUnshareHost:
		return "unshare-host"
	}
	return "?"
}

// GuestOp is one scripted guest event: what the guest does next time
// its vCPU runs.
type GuestOp struct {
	Kind  GuestOpKind
	IPA   arch.IPA
	Write bool
	Value uint64 // written on a successful write access
}

func (op GuestOp) String() string {
	return fmt.Sprintf("%s(ipa=%#x)", op.Kind, uint64(op.IPA))
}

// PerCPU is the hypervisor's physical-CPU-local state.
type PerCPU struct {
	// LoadedVM / LoadedVCPU identify the vCPU owned by this physical
	// CPU, Handle 0 when none.
	LoadedVM   Handle
	LoadedVCPU int
	// LastAbortInjected reports whether the most recent host stage 2
	// abort on this CPU was reflected back into the host rather than
	// satisfied by mapping-on-demand.
	LastAbortInjected bool
}
