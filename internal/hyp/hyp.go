// Package hyp is the pKVM-workalike hypervisor: a pure isolation
// kernel managing a stage 2 table for the Android host, a stage 2
// table per guest VM, and a stage 1 table for itself, with the
// hypercall API and ownership discipline of pKVM (paper §2).
//
// It is the implementation under test: deliberately written in the
// style of the real thing — generic walker callbacks, two-phase
// locking per component, page-state annotations squeezed into spare
// descriptor bits — so the ghost specification has the same kind of
// artifact to abstract. The faults.Injector re-introduces the paper's
// real and synthetic bugs at the code points where they lived.
package hyp

import (
	"fmt"
	"slices"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/arch"
	"ghostspec/internal/faults"
	"ghostspec/internal/mem"
	"ghostspec/internal/pgtable"
	"ghostspec/internal/spinlock"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// Owner IDs stored in host stage 2 ownership annotations. The host is
// the default owner: host-owned unmapped memory is a plain invalid
// entry (annotation 0 is unencodable by construction).
const (
	// IDHyp marks memory owned by the hypervisor itself.
	IDHyp uint8 = 1
	// IDGuestBase is the owner ID of VM slot 0; slot s uses
	// IDGuestBase+s.
	IDGuestBase uint8 = 16
)

// VMIDs tag TLB entries with their translation regime, mirroring the
// hardware's VMID field (plus a sentinel for the EL2 stage 1 regime,
// which hardware distinguishes by translation context rather than
// VMID). The host runs on VMID 0, as KVM configures it; guest slot s
// uses 1+s, matching its hardware VMID allocation order.
const (
	// VMIDHost tags the host's stage 2 translations.
	VMIDHost arch.VMID = 0
	// VMIDHyp tags the hypervisor's own stage 1 translations.
	VMIDHyp arch.VMID = 0xffff
)

// VMIDForSlot returns the VMID of the guest in VM slot s.
func VMIDForSlot(slot int) arch.VMID { return arch.VMID(1 + slot) }

// GuestOwner returns the host-S2 annotation owner ID for a VM slot.
func GuestOwner(slot int) uint8 { return IDGuestBase + uint8(slot) }

// GuestSlot inverts GuestOwner, returning -1 for non-guest owners.
func GuestSlot(owner uint8) int {
	if owner < IDGuestBase || int(owner-IDGuestBase) >= MaxVMs {
		return -1
	}
	return int(owner - IDGuestBase)
}

// HypVAOffset is the hypervisor's linear-map offset: the hypervisor
// virtual address of physical address pa is pa+HypVAOffset.
const HypVAOffset uint64 = 0x8000_0000_0000

// UARTPhys is the physical address of the console device, inside the
// MMIO hole.
const UARTPhys arch.PhysAddr = 0x0010_0000

// Config parameterises a boot.
type Config struct {
	// NrCPUs is the number of hardware threads (default 4, the
	// paper's benchmark configuration).
	NrCPUs int
	// Layout is the physical map (default arch.DefaultLayout).
	Layout arch.MemLayout
	// HypPoolPages is the size of the carve-out donated to the
	// hypervisor at boot for its own allocations (default 1024).
	HypPoolPages uint64
	// Inj selects injected bugs; nil injects nothing.
	Inj *faults.Injector
	// Tracer, when set, receives execution spans (trap dispatch, table
	// mutations, TLB maintenance, oracle checks) on TraceLane. The
	// campaign engine passes one tracer with a lane per worker; nil
	// leaves the system untraced.
	Tracer *trace.Tracer
	// TraceLane is this system's lane in Tracer (one goroutine drives
	// one lane; see the trace package).
	TraceLane int
}

func (c *Config) fill() {
	if c.NrCPUs == 0 {
		c.NrCPUs = 4
	}
	if c.Layout == (arch.MemLayout{}) {
		c.Layout = arch.DefaultLayout()
	}
	if c.HypPoolPages == 0 {
		c.HypPoolPages = 1024
	}
}

// Globals are the boot-time constants of the hypervisor, the values
// the ghost state's globals member copies (paper §3.1).
type Globals struct {
	NrCPUs      int
	HypVAOffset uint64
	RAMStart    arch.PhysAddr
	RAMSize     uint64
	MMIOSize    uint64
	CarveStart  arch.PhysAddr // hypervisor-owned carve-out
	CarveSize   uint64
	UARTPhys    arch.PhysAddr
	UARTHypVA   arch.VirtAddr // where the boot mapped the console
}

// InRAM reports whether pa is DRAM, from the ghost copy of the boot
// constants (so specification code need not touch the live memory
// object).
func (g Globals) InRAM(pa arch.PhysAddr) bool {
	return pa >= g.RAMStart && uint64(pa-g.RAMStart) < g.RAMSize
}

// InMMIO reports whether pa is in the MMIO hole.
func (g Globals) InMMIO(pa arch.PhysAddr) bool { return uint64(pa) < g.MMIOSize }

// Hypervisor is the whole EL2 state: shared components each guarded by
// their own lock, and per-physical-CPU local state.
type Hypervisor struct {
	Mem  *arch.Memory
	CPUs []*arch.CPU
	Inj  *faults.Injector

	// HypPool is the allocator over the boot carve-out; host S2 and
	// hyp S1 table pages come from here.
	HypPool *mem.Pool

	hostLock *spinlock.Lock
	hostPGT  *pgtable.Table // host stage 2

	hypLock *spinlock.Lock
	hypPGT  *pgtable.Table // hypervisor's own stage 1

	vmsLock *spinlock.Lock
	//ghost:guards lock=vms
	vms [MaxVMs]*VM
	// reclaimable is the set of frames from torn-down VMs awaiting
	// host_reclaim_page, ascending and without duplicates; protected
	// by vmsLock.
	//ghost:guards lock=vms
	reclaimable []arch.PFN

	percpu []*PerCPU

	// tlb is the software TLB modelling the hardware translation
	// caches.
	tlb *arch.TLB
	// hostTLBIOff suppresses the host stage 2 TLBI notifications while
	// set — the injection window of BugUnshareSkipTLBI. Written and
	// read only under the host lock (the TLBI callback fires inside
	// host table mutations, which hold it).
	//ghost:guards lock=host
	hostTLBIOff bool

	globals Globals
	instr   Instrumentation
	// flight is the per-CPU ring of recent traps; oracle failure
	// reports attach dumps of it.
	flight *telemetry.FlightRecorder

	// tracer/traceLane and dom reach every layer of this system; see instrument.
	tracer    *trace.Tracer
	traceLane int
	dom       preempt.Domain
}

// New boots the hypervisor: builds the physical memory, carves out the
// hypervisor's own pool, constructs the initial stage 1 and host
// stage 2 tables, and leaves the system ready to take traps.
func New(cfg Config) (*Hypervisor, error) {
	cfg.fill()
	m := arch.NewMemory(cfg.Layout)
	carveStart := m.RAMStart()
	carveBytes := cfg.HypPoolPages << arch.PageShift
	if carveBytes >= m.RAMSize() {
		return nil, fmt.Errorf("hyp: carve-out %d pages exceeds RAM", cfg.HypPoolPages)
	}

	hv := &Hypervisor{
		Mem:       m,
		CPUs:      arch.NewCPUs(cfg.NrCPUs),
		Inj:       cfg.Inj,
		HypPool:   mem.NewPool("hyp", arch.PhysToPFN(carveStart), cfg.HypPoolPages),
		hostLock:  spinlock.NewRanked("host", LockRankHost, nil),
		hypLock:   spinlock.NewRanked("pkvm", LockRankHyp, nil),
		vmsLock:   spinlock.NewRanked("vms", LockRankVMTable, nil),
		percpu:    make([]*PerCPU, cfg.NrCPUs),
		instr:     nopInstr{},
		flight:    telemetry.NewFlightRecorder(cfg.NrCPUs, telemetry.DefaultFlightDepth),
		tracer:    cfg.Tracer,
		traceLane: cfg.TraceLane,
	}
	for i := range hv.percpu {
		hv.percpu[i] = &PerCPU{LoadedVCPU: -1}
	}
	for _, l := range []*spinlock.Lock{hv.hostLock, hv.hypLock, hv.vmsLock} {
		hv.instrument(l)
	}
	hv.tlb = arch.NewTLB(m)
	hv.instrument(hv.tlb)

	hv.globals = Globals{
		NrCPUs:      cfg.NrCPUs,
		HypVAOffset: HypVAOffset,
		RAMStart:    m.RAMStart(),
		RAMSize:     m.RAMSize(),
		MMIOSize:    cfg.Layout.MMIOSize,
		CarveStart:  carveStart,
		CarveSize:   carveBytes,
		UARTPhys:    UARTPhys,
	}

	if err := hv.initHypS1(); err != nil {
		return nil, err
	}
	if err := hv.initHostS2(); err != nil {
		return nil, err
	}

	for _, cpu := range hv.CPUs {
		cpu.TTBREL2 = hv.hypPGT.Root()
		cpu.VTTBR = hv.hostPGT.Root()
	}
	return hv, nil
}

// initHypS1 builds the hypervisor's own stage 1: the linear map of the
// carve-out (which self-maps the table pages being allocated) and the
// console device mapping. This is where the paper's bug 5 lived: for
// very large physical memory the device mapping's virtual address was
// computed into the middle of the linear map region.
func (hv *Hypervisor) initHypS1() error {
	pgt, err := pgtable.New("hyp_s1", hv.Mem, arch.Stage1, pgtable.PoolAllocator{Pool: hv.HypPool}, 2)
	if err != nil {
		return err
	}
	pgt.SetOnTablePage(liveTableGauge(telHypTablesLive))
	pgt.SetTLBI(hv.hypTLBI)
	pgt.SetTLB(hv.tlb, VMIDHyp)
	hv.instrument(pgt)
	hv.hypPGT = pgt

	g := &hv.globals
	ramEnd := uint64(g.RAMStart) + g.RAMSize
	uartVA := HypVAOffset + alignUpTo(ramEnd, 1<<30) // above the whole linear region
	if hv.Inj.Enabled(faults.BugLinearMapOverlap) {
		// The buggy computation truncates the linear-map end to 32
		// bits: identical for small memory, inside the linear region
		// for RAM extending past 4GB.
		uartVA = HypVAOffset + (alignUpTo(ramEnd, 1<<30) & 0xFFFF_FFFF)
	}
	g.UARTHypVA = arch.VirtAddr(uartVA)

	// Linear map of the carve-out: hyp-owned working memory.
	ownAttrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateOwned}
	if err := pgt.Map(HypVAOffset+uint64(g.CarveStart), g.CarveSize, g.CarveStart, ownAttrs, false); err != nil {
		return fmt.Errorf("hyp linear map: %w", err)
	}

	// Console device page. The correct address can never collide with
	// the linear map; the buggy one can, and force-overwrites a linear
	// page with a device mapping — the unchecked-IO hazard of bug 5.
	devAttrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemDevice, State: arch.StateOwned}
	if err := pgt.Map(uartVA, arch.PageSize, g.UARTPhys, devAttrs, true); err != nil {
		return fmt.Errorf("hyp uart map: %w", err)
	}
	return nil
}

// initHostS2 builds the host's stage 2. Host memory is mapped on
// demand (paper §2), so the table starts almost empty: only the
// carve-out is annotated as hypervisor-owned so the host can never
// fault it in.
func (hv *Hypervisor) initHostS2() error {
	// Blocks down to level 1: big-memory devices demand-map whole 1GB
	// regions on first touch.
	pgt, err := pgtable.New("host_s2", hv.Mem, arch.Stage2, pgtable.PoolAllocator{Pool: hv.HypPool}, 1)
	if err != nil {
		return err
	}
	pgt.SetOnTablePage(liveTableGauge(telHostTablesLive))
	pgt.SetTLBI(hv.hostTLBI)
	pgt.SetTLB(hv.tlb, VMIDHost)
	hv.instrument(pgt)
	hv.hostPGT = pgt
	g := &hv.globals
	if err := pgt.Annotate(uint64(g.CarveStart), g.CarveSize, IDHyp); err != nil {
		return fmt.Errorf("host s2 carve-out annotation: %w", err)
	}
	return nil
}

func alignUpTo(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// Lock ranks: the global acquisition order, validated statically by
// ghostlint's lockcheck and dynamically by the spinlock rank
// validator (spinlock.EnableRankCheck). Every hypercall path acquires
// in strictly ascending rank: the VM table before any guest stage 2,
// a guest stage 2 before the host stage 2, the host stage 2 before
// the hypervisor's own stage 1. See docs/ANALYSIS.md for the table
// and the per-path derivation.
const (
	LockRankVMTable = 1 // vms
	LockRankGuest   = 2 // guest:<handle>
	LockRankHost    = 3 // host
	LockRankHyp     = 4 // pkvm
)

// VMTableLock exposes the VM-table lock. It exists for code that
// demonstrates or tests the lock discipline itself (internal/bugdemo,
// the rank validator tests); hypercall paths use the lockVMs helper
// so the ghost hooks fire.
func (hv *Hypervisor) VMTableLock() *spinlock.Lock { return hv.vmsLock }

// SetInstrumentation attaches the ghost hooks. It must be called
// before any hypercall traffic, mirroring the boot-time configuration
// of the instrumented build.
func (hv *Hypervisor) SetInstrumentation(in Instrumentation) {
	if in == nil {
		in = nopInstr{}
	}
	hv.instr = in
}

// Tracer exposes the system's span tracer and lane; the ghost
// recorder uses it to place oracle-check spans on the same lane as the
// traps they check. Nil when the system is untraced.
func (hv *Hypervisor) Tracer() (*trace.Tracer, int) { return hv.tracer, hv.traceLane }

// Globals returns the boot-time constants.
func (hv *Hypervisor) Globals() Globals { return hv.globals }

// HostMemStart returns the first physical address the host may
// allocate from (just past the carve-out).
func (hv *Hypervisor) HostMemStart() arch.PhysAddr {
	return hv.globals.CarveStart + arch.PhysAddr(hv.globals.CarveSize)
}

// HostMemPages returns the number of host-allocatable frames.
func (hv *Hypervisor) HostMemPages() uint64 {
	return (hv.globals.RAMSize - hv.globals.CarveSize) >> arch.PageShift
}

// HypVA returns the hypervisor virtual address of a physical address
// under the linear map.
func HypVA(pa arch.PhysAddr) arch.VirtAddr {
	return arch.VirtAddr(uint64(pa) + HypVAOffset)
}

// HostPGTRoot exposes the host stage 2 root; the ghost abstraction
// functions and the proxy's simulated hardware walks read through it.
func (hv *Hypervisor) HostPGTRoot() arch.PhysAddr { return hv.hostPGT.Root() }

// HypPGTRoot exposes the hypervisor stage 1 root for the ghost
// abstraction functions.
func (hv *Hypervisor) HypPGTRoot() arch.PhysAddr { return hv.hypPGT.Root() }

// VMSnapshot gives the ghost abstraction functions read access to a VM
// slot. The caller must hold the VM-table lock; reading an already
// looked-up slot under its own guest lock is the one sanctioned
// exception (slot pointers are stable while the guest lock pins the
// VM), and carries an explicit suppression at the call site.
//
//ghost:requires lock=vms
func (hv *Hypervisor) VMSnapshot(slot int) *VM {
	if slot < 0 || slot >= MaxVMs {
		return nil
	}
	return hv.vms[slot]
}

// ReclaimablePFNs returns the reclaim set, ascending. The slice is the
// hypervisor's own, read without a copy: callers must be under the vms
// lock (see VMSnapshot), must not modify it and must not keep it past
// the lock's release. The ghost abstraction of the VM table folds it
// into a run-encoded page set, or confirms a recorded set against it,
// in one pass.
//
//ghost:requires lock=vms
func (hv *Hypervisor) ReclaimablePFNs() []arch.PFN {
	n := len(hv.reclaimable)
	return hv.reclaimable[:n:n]
}

// addReclaimable merges frames, in any order, into the reclaim set.
//
//ghost:requires lock=vms
func (hv *Hypervisor) addReclaimable(pfns []arch.PFN) {
	hv.reclaimable = append(hv.reclaimable, pfns...)
	slices.Sort(hv.reclaimable)
	hv.reclaimable = slices.Compact(hv.reclaimable)
}

// PerCPUState exposes the physical CPU's hypervisor-local state to the
// ghost recording of thread locals.
func (hv *Hypervisor) PerCPUState(cpu int) PerCPU { return *hv.percpu[cpu] }

// LoadedMCPages returns the memcache contents of the vCPU loaded on
// cpu, or nil when none is loaded. While loaded, the memcache is owned
// by the physical CPU, so the ghost records it among the thread-locals
// rather than under the VM-table lock.
//
//ghostlint:ignore lockcheck lookupVM without the vms lock is the §3.1 ownership exception: vcpu_load transferred the memcache to this physical CPU, so the loaded slot cannot be torn down under us
func (hv *Hypervisor) LoadedMCPages(cpu int) []arch.PFN {
	pc := hv.percpu[cpu]
	if pc.LoadedVM == 0 {
		return nil
	}
	vm := hv.lookupVM(pc.LoadedVM)
	if vm == nil {
		return nil
	}
	return vm.VCPUs[pc.LoadedVCPU].MC.Pages()
}

// ---------------------------------------------------------------------
// Lock helpers: each takes the component lock and fires the ghost
// hooks while holding it, exactly like the paper's instrumented
// host_lock_component (§3.2). pt is the caller's preemption point,
// crossed by the lock operation itself.

func (hv *Hypervisor) lockHost(cpu int, pt *preempt.Point) {
	hv.hostLock.LockAt(pt)
	hv.instr.LockAcquired(cpu, Component{Kind: CompHost})
}

// unlockHost releases the host lock at pt. A deferred release,
// defer hv.unlockHost(cpu, nil), crosses the helper's own release
// point instead, which every deferred host release shares.
func (hv *Hypervisor) unlockHost(cpu int, pt *preempt.Point) {
	hv.instr.LockReleasing(cpu, Component{Kind: CompHost})
	if pt == nil {
		hv.hostLock.UnlockAt(unlockHostOwn)
		return
	}
	hv.hostLock.UnlockAt(pt)
}

func (hv *Hypervisor) lockHyp(cpu int, pt *preempt.Point) {
	hv.hypLock.LockAt(pt)
	hv.instr.LockAcquired(cpu, Component{Kind: CompHyp})
}

func (hv *Hypervisor) unlockHyp(cpu int, pt *preempt.Point) {
	hv.instr.LockReleasing(cpu, Component{Kind: CompHyp})
	hv.hypLock.UnlockAt(pt)
}

func (hv *Hypervisor) lockVMs(cpu int, pt *preempt.Point) {
	hv.vmsLock.LockAt(pt)
	hv.instr.LockAcquired(cpu, Component{Kind: CompVMTable})
}

// unlockVMs releases the VM table at pt; nil, from a deferred release,
// crosses the helper's own release point (see unlockHost).
func (hv *Hypervisor) unlockVMs(cpu int, pt *preempt.Point) {
	hv.instr.LockReleasing(cpu, Component{Kind: CompVMTable})
	if pt == nil {
		hv.vmsLock.UnlockAt(unlockVMsOwn)
		return
	}
	hv.vmsLock.UnlockAt(pt)
}

func (hv *Hypervisor) lockGuest(cpu int, vm *VM, pt *preempt.Point) {
	vm.Lock.LockAt(pt)
	hv.instr.LockAcquired(cpu, Component{Kind: CompGuest, Handle: vm.Handle})
}

func (hv *Hypervisor) unlockGuest(cpu int, vm *VM, pt *preempt.Point) {
	hv.instr.LockReleasing(cpu, Component{Kind: CompGuest, Handle: vm.Handle})
	vm.Lock.UnlockAt(pt)
}

// instrument attaches one of this system's locks, page tables or TLB
// to the system's span tracer (trap dispatch here, mutations in
// pgtable, fills in arch.TLB, checks in ghost; nil stays untraced) and
// to its preemption domain.
func (hv *Hypervisor) instrument(x interface {
	SetTracer(*trace.Tracer, int)
	SetDomain(*preempt.Domain)
}) {
	x.SetTracer(hv.tracer, hv.traceLane)
	x.SetDomain(&hv.dom)
}

// Preempt returns the system's preemption domain: the one slot a
// deterministic scheduler binds (internal/sched) to drive this
// system's vCPUs. Crossings on every other system stay unscheduled.
func (hv *Hypervisor) Preempt() *preempt.Domain { return &hv.dom }
