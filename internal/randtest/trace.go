package randtest

import (
	"fmt"
	"strings"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
)

// OpKind enumerates the concrete driver actions a tester can record.
// Every generator step lowers to a short sequence of these; each op is
// self-contained (all arguments concrete), so a recorded trace can be
// replayed — and, crucially, an arbitrary *subset* of it can be
// replayed — without the generator or its model.
type OpKind uint8

const (
	// OpAlloc takes one host frame from the pool.
	OpAlloc OpKind = iota
	// OpFree returns one host frame.
	OpFree
	// OpTouch performs a host access (fault-in path) at PFN.
	OpTouch
	// OpShare / OpUnshare / OpDonate / OpReclaim are the single-page
	// memory-transition hypercalls.
	OpShare
	OpUnshare
	OpDonate
	OpReclaim
	// OpShareRange is the phased range share of Nr pages from PFN.
	OpShareRange
	// OpInitVM creates a VM with Nr vCPUs (donation handled by the
	// driver wrapper). H records the handle the call returned.
	OpInitVM
	// OpInitVCPU initialises vCPU VCPU of VM H.
	OpInitVCPU
	// OpTeardown destroys VM H.
	OpTeardown
	// OpTopup tops up vCPU VCPU of VM H with Nr fresh pages (the
	// wrapper allocates and threads the donation list).
	OpTopup
	// OpTopupRaw issues a raw topup hypercall with head = PFN's
	// physical address plus Off and count Nr — the malicious-host
	// probe for the memcache bugs (misaligned head, huge count).
	OpTopupRaw
	// OpLoad / OpPut / OpRun drive vCPU scheduling.
	OpLoad
	OpPut
	OpRun
	// OpQueueGuest scripts guest event Guest on vCPU VCPU of VM H.
	OpQueueGuest
	// OpLoadProgram installs guest program Prog on vCPU VCPU of VM H.
	OpLoadProgram
	// OpMapGuest donates page PFN into the loaded VM at GFN.
	OpMapGuest
	// OpHVCRaw issues an arbitrary hypercall (unguided mode and the
	// unknown-hypercall probe).
	OpHVCRaw
	// OpFaultAgain re-delivers a stage 2 fault for PFN even though the
	// host mapping may already be valid — the spurious-fault delivery
	// a concurrent host CPU can cause (paper §6 bug 4's trigger).
	OpFaultAgain
)

func (k OpKind) String() string {
	switch k {
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	case OpTouch:
		return "touch"
	case OpShare:
		return "share"
	case OpUnshare:
		return "unshare"
	case OpDonate:
		return "donate"
	case OpReclaim:
		return "reclaim"
	case OpShareRange:
		return "share-range"
	case OpInitVM:
		return "init-vm"
	case OpInitVCPU:
		return "init-vcpu"
	case OpTeardown:
		return "teardown"
	case OpTopup:
		return "topup"
	case OpTopupRaw:
		return "topup-raw"
	case OpLoad:
		return "load"
	case OpPut:
		return "put"
	case OpRun:
		return "run"
	case OpQueueGuest:
		return "queue-guest"
	case OpLoadProgram:
		return "load-program"
	case OpMapGuest:
		return "map-guest"
	case OpHVCRaw:
		return "hvc-raw"
	case OpFaultAgain:
		return "fault-again"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one recorded driver action with concrete arguments. PFN and H
// record the values observed at recording time; replay translates them
// through the frames/handles the replayed allocations actually return,
// so a shrunk trace (whose allocations land elsewhere) still targets
// "the page allocated by that alloc op" rather than a stale number.
type Op struct {
	Kind  OpKind
	CPU   int
	PFN   arch.PFN
	Nr    uint64
	H     hyp.Handle
	VCPU  int
	GFN   uint64
	Off   uint64 // byte offset for OpTopupRaw heads
	Write bool
	HC    hyp.HC
	Args  [4]uint64
	Guest hyp.GuestOp
	Prog  []hyp.Insn
}

// String formats one op deterministically (the byte-identical-trace
// regression test compares these).
func (o Op) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s cpu=%d", o.Kind, o.CPU)
	switch o.Kind {
	case OpAlloc, OpFree:
		fmt.Fprintf(&b, " pfn=%#x", uint64(o.PFN))
	case OpTouch:
		fmt.Fprintf(&b, " pfn=%#x write=%v", uint64(o.PFN), o.Write)
	case OpShare, OpUnshare, OpReclaim:
		fmt.Fprintf(&b, " pfn=%#x", uint64(o.PFN))
	case OpDonate, OpShareRange:
		fmt.Fprintf(&b, " pfn=%#x nr=%d", uint64(o.PFN), o.Nr)
	case OpInitVM:
		fmt.Fprintf(&b, " vcpus=%d h=%#x", o.Nr, uint64(o.H))
	case OpInitVCPU, OpQueueGuest, OpLoadProgram:
		fmt.Fprintf(&b, " h=%#x vcpu=%d", uint64(o.H), o.VCPU)
		if o.Kind == OpQueueGuest {
			fmt.Fprintf(&b, " op=%s ipa=%#x write=%v val=%#x",
				o.Guest.Kind, uint64(o.Guest.IPA), o.Guest.Write, o.Guest.Value)
		}
		if o.Kind == OpLoadProgram {
			fmt.Fprintf(&b, " prog=%d insns", len(o.Prog))
			for _, in := range o.Prog {
				fmt.Fprintf(&b, " [%d d%d s%d %#x]", in.Op, in.Dst, in.Src, in.Imm)
			}
		}
	case OpTeardown:
		fmt.Fprintf(&b, " h=%#x", uint64(o.H))
	case OpTopup:
		fmt.Fprintf(&b, " h=%#x vcpu=%d nr=%d", uint64(o.H), o.VCPU, o.Nr)
	case OpTopupRaw:
		fmt.Fprintf(&b, " h=%#x vcpu=%d pfn=%#x off=%#x nr=%#x", uint64(o.H), o.VCPU, uint64(o.PFN), o.Off, o.Nr)
	case OpLoad:
		fmt.Fprintf(&b, " h=%#x vcpu=%d", uint64(o.H), o.VCPU)
	case OpMapGuest:
		fmt.Fprintf(&b, " pfn=%#x gfn=%#x", uint64(o.PFN), o.GFN)
	case OpHVCRaw:
		fmt.Fprintf(&b, " id=%#x args=%#x,%#x,%#x,%#x", uint64(o.HC), o.Args[0], o.Args[1], o.Args[2], o.Args[3])
	case OpFaultAgain:
		fmt.Fprintf(&b, " pfn=%#x write=%v", uint64(o.PFN), o.Write)
	}
	return b.String()
}

// Trace is a recorded operation sequence: together with the boot
// configuration it is a complete, deterministic reproduction recipe.
type Trace struct {
	Ops []Op
}

// Len returns the number of recorded ops.
func (tr *Trace) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.Ops)
}

// String renders the trace one op per line.
func (tr *Trace) String() string {
	var b strings.Builder
	for i, op := range tr.Ops {
		fmt.Fprintf(&b, "%4d  %s\n", i, op.String())
	}
	return b.String()
}

// Subset returns a new trace keeping only the ops whose index is in
// keep (which must be sorted ascending).
func (tr *Trace) Subset(keep []int) *Trace {
	out := &Trace{Ops: make([]Op, 0, len(keep))}
	for _, i := range keep {
		out.Ops = append(out.Ops, tr.Ops[i])
	}
	return out
}

// Replay executes the trace against a freshly booted driver. Hypercall
// errnos and host-crash reflections are ignored — the hypervisor is
// specified to tolerate a malicious host, and during shrinking partial
// traces routinely hit error paths; the oracle attached to d's
// hypervisor is the only judge that matters.
//
// Frames and VM handles are translated: an OpAlloc binds the recorded
// frame number to whatever the replayed allocation returns, and every
// later reference goes through that binding (identity for a full
// replay, a remapping for shrunk traces). References whose defining op
// was dropped by the shrinker pass through untranslated — the call
// then simply exercises an error path.
func Replay(d *proxy.Driver, tr *Trace) {
	trc, lane := d.HV.Tracer()
	sp := trc.Begin(lane, spanReplay)
	defer sp.End()
	env := newReplayEnv()
	for _, op := range tr.Ops {
		env.apply(d, op)
	}
}

// replayEnv is the frame/handle translation state one replay threads
// through its ops. Scheduled replays (ReplayScheduled) share one env
// across all vCPU streams — safe only under one-token scheduling,
// which serialises every apply with a happens-before edge.
type replayEnv struct {
	pfns    map[arch.PFN]arch.PFN
	handles map[hyp.Handle]hyp.Handle
}

func newReplayEnv() *replayEnv {
	return &replayEnv{
		pfns:    make(map[arch.PFN]arch.PFN),
		handles: make(map[hyp.Handle]hyp.Handle),
	}
}

func (e *replayEnv) xp(p arch.PFN) arch.PFN {
	if a, ok := e.pfns[p]; ok {
		return a
	}
	return p
}

func (e *replayEnv) xh(h hyp.Handle) hyp.Handle {
	if a, ok := e.handles[h]; ok {
		return a
	}
	return h
}

// apply executes one op against the driver, updating the translation
// bindings.
func (e *replayEnv) apply(d *proxy.Driver, op Op) {
	switch op.Kind {
	case OpAlloc:
		if pfn, err := d.AllocPage(); err == nil {
			e.pfns[op.PFN] = pfn
		}
	case OpFree:
		// A shrunk trace can keep a free whose alloc was dropped. The
		// host allocator never frees a frame it does not hold, so the
		// op is skipped instead of double-freeing.
		if pfn := e.xp(op.PFN); d.HostPool.InUse(pfn) {
			d.FreePage(pfn)
		}
	case OpTouch:
		d.Access(op.CPU, arch.IPA(e.xp(op.PFN).Phys()), op.Write)
	case OpShare:
		d.ShareHyp(op.CPU, e.xp(op.PFN))
	case OpUnshare:
		d.UnshareHyp(op.CPU, e.xp(op.PFN))
	case OpDonate:
		d.DonateHyp(op.CPU, e.xp(op.PFN), op.Nr)
	case OpReclaim:
		d.ReclaimPage(op.CPU, e.xp(op.PFN))
	case OpShareRange:
		d.ShareHypRange(op.CPU, e.xp(op.PFN), op.Nr)
	case OpInitVM:
		if h, _, err := d.InitVM(op.CPU, int(op.Nr)); err == nil {
			e.handles[op.H] = h
		}
	case OpInitVCPU:
		d.InitVCPU(op.CPU, e.xh(op.H), op.VCPU)
	case OpTeardown:
		d.TeardownVM(op.CPU, e.xh(op.H))
	case OpTopup:
		d.Topup(op.CPU, e.xh(op.H), op.VCPU, op.Nr)
	case OpTopupRaw:
		head := uint64(e.xp(op.PFN).Phys()) + op.Off
		d.HVC(op.CPU, hyp.HCTopupVCPUMemcache, uint64(e.xh(op.H)), uint64(op.VCPU), head, op.Nr)
	case OpLoad:
		d.VCPULoad(op.CPU, e.xh(op.H), op.VCPU)
	case OpPut:
		d.VCPUPut(op.CPU)
	case OpRun:
		d.VCPURun(op.CPU)
	case OpQueueGuest:
		d.QueueGuestOp(e.xh(op.H), op.VCPU, op.Guest)
	case OpLoadProgram:
		d.HV.LoadGuestProgram(e.xh(op.H), op.VCPU, op.Prog)
	case OpMapGuest:
		d.MapGuest(op.CPU, e.xp(op.PFN), op.GFN)
	case OpHVCRaw:
		d.HVC(op.CPU, op.HC, op.Args[0], op.Args[1], op.Args[2], op.Args[3])
	case OpFaultAgain:
		d.FaultAgain(op.CPU, arch.IPA(e.xp(op.PFN).Phys()), op.Write)
	}
}
