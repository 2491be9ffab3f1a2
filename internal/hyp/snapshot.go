package hyp

import (
	"slices"

	"ghostspec/internal/arch"
	"ghostspec/internal/mem"
	"ghostspec/internal/pgtable"
	"ghostspec/internal/spinlock"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

var spanSnapCowFault = trace.NewName("snapshot.cow-fault")

// System snapshot/restore.
//
// A Base is captured once per worker from its freshly booted system
// and anchors every later restore: the memory image plus the boot-time
// value state. A Delta is the portable difference between some later
// system state and the base — corpus parents are stored as deltas, so
// any worker can fork a child straight into a parent trace's end state
// without replaying it. Deltas are immutable pure data; workers share
// them freely (every worker boots the same deterministic system, so
// one worker's base content equals every other's).
//
// Restores rewrite only dirty memory frames (the copy-on-write trick,
// driven by the per-frame write-generation counters), bump the
// generations of everything they rewrite, and finish with a stale-deps
// TLB sweep — so TLB entries and generation-keyed ghost caches
// self-invalidate exactly where content changed and stay warm
// everywhere else.

// sysState is the value copy of every piece of mutable system state
// that lives outside physical memory: register files, per-CPU
// hypervisor state, VM/vCPU metadata, the reclaim set, and the hyp
// allocator (free-list order included — allocation replay must hand
// out the same frames in the same order).
type sysState struct {
	cpus    []arch.CPU
	percpu  []PerCPU
	vms     [MaxVMs]*vmState
	reclaim []arch.PFN
	hypPool mem.PoolSnapshot
}

type vmState struct {
	handle    Handle
	vmid      arch.VMID
	state     VMState
	protected bool
	nrVCPUs   int
	root      arch.PhysAddr // stage 2 root; 0 if the table is gone
	donated   []arch.PFN
	vcpus     []vcpuState
}

type vcpuState struct {
	idx         int
	initialized bool
	loadedOn    int
	regs        arch.Regs
	mc          []arch.PFN
	pending     []GuestOp
	program     []Insn
}

// Base anchors one worker's system to a shared memory image. The
// image may come from a sibling system (CaptureBase verifies content
// equality and falls back to a private image on mismatch); the
// baseline and boot state are always this system's own.
type Base struct {
	hv   *Hypervisor
	img  *arch.MemImage
	bl   *arch.MemBaseline
	boot *sysState
}

// Delta is a portable snapshot of a system state relative to a base:
// the dirty memory frames plus a full value copy of the non-memory
// state (which is small — copying it wholesale beats diffing it).
type Delta struct {
	Mem   *arch.MemDelta
	state *sysState
}

// DirtyFrames returns the number of memory frames the delta rewrites.
func (d *Delta) DirtyFrames() int { return d.Mem.Frames() }

// CaptureBase snapshots the system as the restore anchor. A non-nil
// shared image from a sibling worker is reused when this system's
// memory verifies bit-identical against it (deterministic boots make
// that the normal case); otherwise a private image is captured. The
// bool result reports whether the shared image was adopted.
func (hv *Hypervisor) CaptureBase(shared *arch.MemImage) (*Base, bool) {
	adopted := false
	img := shared
	var bl *arch.MemBaseline
	if img != nil {
		var ok bool
		if bl, ok = img.NewBaseline(hv.Mem); ok {
			adopted = true
		} else {
			bl = nil
		}
	}
	if bl == nil {
		img = hv.Mem.CaptureImage()
		bl, _ = img.NewBaseline(hv.Mem)
	}
	return &Base{hv: hv, img: img, bl: bl, boot: hv.captureState()}, adopted
}

// Image returns the memory image the base is anchored to, for sharing
// with sibling workers.
func (b *Base) Image() *arch.MemImage { return b.img }

// CaptureDelta snapshots the system's current state relative to the
// base. The system must be quiescent (between executions).
func (b *Base) CaptureDelta() *Delta {
	return &Delta{Mem: b.bl.CaptureDelta(), state: b.hv.captureState()}
}

// RestoreBase rewinds the system to its boot state. Returns the
// number of memory frames rewritten.
func (b *Base) RestoreBase() int { return b.restore(nil) }

// RestoreDelta forks the system into the delta's state: memory becomes
// base+delta, value state becomes the delta's copy. Returns the number
// of memory frames rewritten.
func (b *Base) RestoreDelta(d *Delta) int { return b.restore(d) }

// restore rewinds memory (CoW) and value state to base or base+delta.
// It runs with the system quiescent — between executions, no CPU in a
// hypercall — so the lock-free sweep over every component is sound.
//
//ghostlint:ignore guardcheck quiescent system: restore runs between executions with no concurrent hypercalls
func (b *Base) restore(d *Delta) int {
	hv := b.hv

	// Table-page gauges: the live sets of the persistent host/hyp
	// tables are about to change under them, and the guest tables are
	// about to be dropped wholesale. Count before, fix up after.
	var hostBefore, hypBefore int
	if !telemetry.Disabled() {
		hostBefore = len(hv.hostPGT.TablePages())
		hypBefore = len(hv.hypPGT.TablePages())
		guestPages := 0
		for _, vm := range hv.vms {
			if vm != nil && vm.PGT != nil {
				guestPages += len(vm.PGT.TablePages())
			}
		}
		telGuestTablesLive.Add(-int64(guestPages))
	}

	// Memory: the copy-on-write core — rewrite only frames whose
	// write generation moved since they last matched the target.
	sp := hv.tracer.Begin(hv.traceLane, spanSnapCowFault)
	var dirty int
	if d == nil {
		dirty = b.bl.Restore()
	} else {
		dirty = b.bl.RestoreWith(d.Mem)
	}
	sp.End()

	// Non-memory state.
	st := b.boot
	if d != nil {
		st = d.state
	}
	hv.restoreState(st)

	if !telemetry.Disabled() {
		telHostTablesLive.Add(int64(len(hv.hostPGT.TablePages()) - hostBefore))
		telHypTablesLive.Add(int64(len(hv.hypPGT.TablePages()) - hypBefore))
	}

	// Every rewritten frame bumped its generation, so one stale-deps
	// sweep drops exactly the TLB entries the restore invalidated.
	hv.tlb.InvalidateStale(restoreTLBI)
	hv.hostTLBIOff = false
	hv.flight.Reset()
	return dirty
}

// captureState copies the non-memory mutable state by value. Like
// restore, it runs on a quiescent system (capture happens between
// executions), so it reads VM state without the vms lock.
//
//ghostlint:ignore guardcheck quiescent system: capture runs between executions with no concurrent hypercalls
func (hv *Hypervisor) captureState() *sysState {
	st := &sysState{
		cpus:    make([]arch.CPU, len(hv.CPUs)),
		percpu:  make([]PerCPU, len(hv.percpu)),
		hypPool: hv.HypPool.Snapshot(),
	}
	for i, c := range hv.CPUs {
		st.cpus[i] = *c
	}
	for i, p := range hv.percpu {
		st.percpu[i] = *p
	}
	for i, vm := range hv.vms {
		if vm == nil {
			continue
		}
		vs := &vmState{
			handle:    vm.Handle,
			vmid:      vm.VMID,
			state:     vm.State,
			protected: vm.Protected,
			nrVCPUs:   vm.NrVCPUs,
			donated:   append([]arch.PFN(nil), vm.donated...),
			vcpus:     make([]vcpuState, len(vm.VCPUs)),
		}
		if vm.PGT != nil {
			vs.root = vm.PGT.Root()
		}
		for j, vcpu := range vm.VCPUs {
			vs.vcpus[j] = vcpuState{
				idx:         vcpu.Idx,
				initialized: vcpu.Initialized,
				loadedOn:    vcpu.LoadedOn,
				regs:        vcpu.Regs,
				mc:          vcpu.MC.Pages(),
				pending:     append([]GuestOp(nil), vcpu.pending...),
				program:     append([]Insn(nil), vcpu.Program...),
			}
		}
		st.vms[i] = vs
	}
	st.reclaim = slices.Clone(hv.reclaimable)
	return st
}

// restoreState installs a captured value state. Guest page tables are
// re-attached at their recorded roots and rewired exactly like
// newTableFromDonation wires a fresh one; installing the table-page
// gauge callback replays the (restored) tree, so the guest gauge comes
// back consistent without rescanning. Quiescent-system contract as in
// restore.
//
//ghostlint:ignore guardcheck quiescent system: restore runs between executions with no concurrent hypercalls
func (hv *Hypervisor) restoreState(st *sysState) {
	for i := range hv.CPUs {
		*hv.CPUs[i] = st.cpus[i]
	}
	for i := range hv.percpu {
		*hv.percpu[i] = st.percpu[i]
	}
	for i := range hv.vms {
		vs := st.vms[i]
		if vs == nil {
			hv.vms[i] = nil
			continue
		}
		vm := &VM{
			Handle:    vs.handle,
			VMID:      vs.vmid,
			State:     vs.state,
			Protected: vs.protected,
			NrVCPUs:   vs.nrVCPUs,
			donated:   append([]arch.PFN(nil), vs.donated...),
			Lock:      spinlock.NewRanked("guest:"+vs.handle.String(), LockRankGuest, nil),
		}
		hv.instrument(vm.Lock)
		for _, vcs := range vs.vcpus {
			vcpu := &VCPU{
				Idx:         vcs.idx,
				Initialized: vcs.initialized,
				LoadedOn:    vcs.loadedOn,
				Regs:        vcs.regs,
				pending:     append([]GuestOp(nil), vcs.pending...),
				Program:     append([]Insn(nil), vcs.program...),
			}
			vcpu.MC.SetPages(vcs.mc)
			vm.VCPUs = append(vm.VCPUs, vcpu)
		}
		if vs.root != 0 {
			pgt := pgtable.Attach("guest_s2:"+vm.Handle.String(), hv.Mem,
				arch.Stage2, nil, arch.LastLevel, vs.root)
			pgt.SetOnTablePage(liveTableGauge(telGuestTablesLive))
			pgt.SetTLBI(hv.guestTLBI(vm.VMID))
			pgt.SetTLB(hv.tlb, vm.VMID)
			hv.instrument(pgt)
			vm.PGT = pgt
		}
		hv.vms[i] = vm
	}
	hv.reclaimable = append(hv.reclaimable[:0], st.reclaim...)
	hv.HypPool.Restore(st.hypPool)
}
