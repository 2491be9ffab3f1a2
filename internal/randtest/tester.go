package randtest

import (
	"errors"
	"fmt"
	"math/rand"

	"ghostspec/internal/arch"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/telemetry/trace"
)

// Span names for the generation and replay drivers. The tester pulls
// the tracer (and its lane) from the hypervisor it drives, so these
// nest under the campaign's exec phases on the same timeline.
var (
	spanRun    = trace.NewName("randtest.run")
	spanReplay = trace.NewName("randtest.replay")
)

// Stats are the campaign counters.
type Stats struct {
	Steps int
	// Calls counts hypercalls actually issued (some steps are local
	// model operations like allocating a page).
	Calls int
	// ByHC counts calls per hypercall.
	ByHC map[hyp.HC]int
	// OKs/Errnos split results.
	OKs, Errnos int
	// Rejected counts generator steps the crash predictor refused.
	Rejected int
	// HostCrashes counts accesses the hypervisor reflected back — in
	// the real setup each would have panicked the test kernel.
	HostCrashes int
	// HypPanics counts hypervisor panics (the bugs we want).
	HypPanics int
	// VMsCreated/VMsDestroyed measure state-machine depth.
	VMsCreated, VMsDestroyed int
	// GuestRuns counts vcpu_run calls that consumed guest events.
	GuestRuns int
}

// Tester drives one system with random hypercalls.
type Tester struct {
	D   *proxy.Driver
	Rec *ghost.Recorder // may be nil (unchecked run)
	rng *rand.Rand

	// Guided selects model-guided generation; false draws arbitrary
	// values (the ablation baseline).
	Guided bool

	// Trace, when non-nil, records every driver action the tester
	// performs as a concrete Op. A full recording replays
	// byte-identically under the same seed (the shrinker depends on
	// this), and Replay can execute any subset of it.
	Trace *Trace

	// pinCPU, when >= 0, restricts all activity to one hardware
	// thread; used by ConcurrentCampaign to run one tester per CPU.
	pinCPU int

	m     *model
	stats Stats
}

// New builds a tester over a driver. Seed fixes the generation
// sequence.
func New(d *proxy.Driver, rec *ghost.Recorder, seed int64, guided bool) *Tester {
	return NewFromSource(d, rec, rand.NewSource(seed), guided)
}

// NewFromSource is New with an explicit random source. Every random
// draw the tester makes comes from this source and nowhere else — no
// global math/rand state — so concurrent workers each threading their
// own source replay identically under identical seeds.
func NewFromSource(d *proxy.Driver, rec *ghost.Recorder, src rand.Source, guided bool) *Tester {
	return &Tester{
		D:      d,
		Rec:    rec,
		rng:    rand.New(src),
		Guided: guided,
		pinCPU: -1,
		m:      newModel(d.HV.Globals().NrCPUs),
	}
}

// record appends one concrete op to the trace, if recording is on. It
// must be called exactly once per driver action, at the point the
// action is issued.
func (t *Tester) record(op Op) {
	if t.Trace != nil {
		t.Trace.Ops = append(t.Trace.Ops, op)
	}
}

// Stats returns the counters so far.
func (t *Tester) Stats() Stats {
	s := t.stats
	if s.ByHC == nil {
		s.ByHC = map[hyp.HC]int{}
	}
	return s
}

// Run executes n generator steps.
func (t *Tester) Run(n int) {
	tr, lane := t.D.HV.Tracer()
	sp := tr.Begin(lane, spanRun)
	defer sp.End()
	for i := 0; i < n; i++ {
		t.Step()
	}
}

// Step executes one generator step.
func (t *Tester) Step() {
	t.stats.Steps++
	if t.Guided {
		t.stepGuided()
	} else {
		t.stepUnguided()
	}
}

// count records a hypercall result.
func (t *Tester) count(id hyp.HC, err error) {
	t.stats.Calls++
	if t.stats.ByHC == nil {
		t.stats.ByHC = map[hyp.HC]int{}
	}
	t.stats.ByHC[id]++
	var pe *hyp.PanicError
	switch {
	case err == nil:
		t.stats.OKs++
	case errors.As(err, &pe):
		t.stats.HypPanics++
	default:
		t.stats.Errnos++
	}
}

// ---------------------------------------------------------------------
// Unguided generation: uniformly random hypercalls over a small value
// domain. It exists to show what the model buys.

func (t *Tester) stepUnguided() {
	cpu := t.cpu()
	hostBase := uint64(arch.PhysToPFN(t.D.HV.HostMemStart()))
	arb := func() uint64 {
		switch t.rng.Intn(4) {
		case 0:
			return t.rng.Uint64()
		case 1:
			return uint64(t.rng.Intn(64))
		case 2:
			return hostBase + uint64(t.rng.Intn(1024))
		default:
			return uint64(hyp.HandleOffset) + uint64(t.rng.Intn(4))
		}
	}
	if t.rng.Intn(8) == 0 {
		// Random host access: without the model this frequently hits
		// memory the host gave away — a host kernel panic in the real
		// setup.
		pfn := arch.PFN(hostBase + uint64(t.rng.Intn(1024)))
		write := t.rng.Intn(2) == 0
		t.record(Op{Kind: OpTouch, CPU: cpu, PFN: pfn, Write: write})
		ok, err := t.D.Access(cpu, arch.IPA(pfn.Phys()), write)
		if err == nil && !ok {
			t.stats.HostCrashes++
		}
		return
	}
	id := hyp.HC(t.rng.Intn(int(hyp.HCTopupVCPUMemcache) + 2))
	args := [4]uint64{arb(), arb(), arb(), arb()}
	t.record(Op{Kind: OpHVCRaw, CPU: cpu, HC: id, Args: args})
	ret, err := t.D.HVC(cpu, id, args[0], args[1], args[2], args[3])
	if err == nil && ret < 0 {
		err = hyp.Errno(ret)
	}
	t.count(id, err)
}

// ---------------------------------------------------------------------
// Guided generation.

// stepGuided picks a weighted operation using the model for arguments,
// mixing deliberate-but-safe error probes with progress operations.
func (t *Tester) stepGuided() {
	type op struct {
		weight int
		run    func() bool // false: preconditions unmet, step skipped
	}
	ops := []op{
		{10, t.opAllocPage},
		{8, t.opTouch},
		{8, t.opShare},
		{2, t.opShareRange},
		{6, t.opUnshare},
		{3, t.opDonate},
		{4, t.opInitVM},
		{5, t.opInitVCPU},
		{5, t.opTopup},
		{6, t.opLoad},
		{5, t.opPut},
		{8, t.opRun},
		{2, t.opLoadProgram},
		{6, t.opMapGuest},
		{2, t.opTeardown},
		{5, t.opReclaim},
		{3, t.opErrorProbe},
		{4, t.opBugProbe},
	}
	total := 0
	for _, o := range ops {
		total += o.weight
	}
	for attempt := 0; attempt < 8; attempt++ {
		pick := t.rng.Intn(total)
		for _, o := range ops {
			pick -= o.weight
			if pick < 0 {
				if o.run() {
					return
				}
				break
			}
		}
	}
}

// queueGuestOp scripts a guest event, recording it.
func (t *Tester) queueGuestOp(h hyp.Handle, idx int, op hyp.GuestOp) {
	t.record(Op{Kind: OpQueueGuest, H: h, VCPU: idx, Guest: op})
	t.D.QueueGuestOp(h, idx, op)
}

func (t *Tester) cpu() int {
	if t.pinCPU >= 0 {
		return t.pinCPU
	}
	return t.rng.Intn(len(t.m.loadedVM))
}

// loadTarget returns the CPU the tester may load a vCPU onto, or -1.
func (t *Tester) loadTarget() int {
	if t.pinCPU >= 0 {
		if t.m.loadedVM[t.pinCPU] == 0 {
			return t.pinCPU
		}
		return -1
	}
	return t.m.freeCPU()
}

func pickRand[T any](rng *rand.Rand, xs []T) (T, bool) {
	var zero T
	if len(xs) == 0 {
		return zero, false
	}
	return xs[rng.Intn(len(xs))], true
}

// allocPage is AllocPage plus recording; every allocation the tester
// makes goes through here so the trace binds each frame to its alloc.
func (t *Tester) allocPage() (arch.PFN, error) {
	pfn, err := t.D.AllocPage()
	if err == nil {
		t.record(Op{Kind: OpAlloc, PFN: pfn})
	}
	return pfn, err
}

func (t *Tester) freePage(pfn arch.PFN) {
	t.record(Op{Kind: OpFree, PFN: pfn})
	t.D.FreePage(pfn)
}

// allocContiguous allocates until it holds nr physically contiguous
// fresh frames. Non-contiguous spill stays allocated and is kept in
// the model as plain host-owned pages.
func (t *Tester) allocContiguous(nr uint64) ([]arch.PFN, bool) {
	run := make([]arch.PFN, 0, nr)
	for uint64(len(run)) < nr {
		pfn, err := t.allocPage()
		if err != nil {
			for _, p := range run {
				t.freePage(p)
			}
			return nil, false
		}
		if len(run) > 0 && pfn != run[len(run)-1]+1 {
			for _, p := range run {
				t.m.setPage(p, pageHostOwned) // keep, just not contiguous
			}
			run = run[:0]
		}
		run = append(run, pfn)
	}
	return run, true
}

func (t *Tester) opAllocPage() bool {
	pfn, err := t.allocPage()
	if err != nil {
		return false
	}
	t.m.setPage(pfn, pageHostOwned)
	return true
}

func (t *Tester) opTouch() bool {
	pfn, ok := pickRand(t.rng, t.m.pagesIn(pageHostOwned))
	if !ok {
		return false
	}
	if t.m.wouldCrashHost(pfn) {
		t.stats.Rejected++
		return false
	}
	cpu, write := t.cpu(), t.rng.Intn(2) == 0
	t.record(Op{Kind: OpTouch, CPU: cpu, PFN: pfn, Write: write})
	okAcc, err := t.D.Access(cpu, arch.IPA(pfn.Phys()), write)
	if err == nil && !okAcc {
		t.stats.HostCrashes++
	}
	return true
}

func (t *Tester) opShare() bool {
	pfn, ok := pickRand(t.rng, t.m.pagesIn(pageHostOwned))
	if !ok {
		return false
	}
	cpu := t.cpu()
	t.record(Op{Kind: OpShare, CPU: cpu, PFN: pfn})
	err := t.D.ShareHyp(cpu, pfn)
	t.count(hyp.HCHostShareHyp, err)
	if err == nil {
		t.m.setPage(pfn, pageSharedHyp)
	}
	return true
}

// opShareRange exercises the phased hypercall over a short run of
// fresh pages (per-page lock phases, checked transactionally).
func (t *Tester) opShareRange() bool {
	nr := uint64(t.rng.Intn(4) + 2)
	run, ok := t.allocContiguous(nr)
	if !ok {
		return false
	}
	cpu := t.cpu()
	t.record(Op{Kind: OpShareRange, CPU: cpu, PFN: run[0], Nr: nr})
	err := t.D.ShareHypRange(cpu, run[0], nr)
	t.count(hyp.HCHostShareHypRange, err)
	if err == nil {
		for _, p := range run {
			t.m.setPage(p, pageSharedHyp)
		}
	} else {
		for _, p := range run {
			t.m.setPage(p, pageHostOwned)
		}
	}
	return true
}

func (t *Tester) opUnshare() bool {
	pfn, ok := pickRand(t.rng, t.m.pagesIn(pageSharedHyp))
	if !ok {
		return false
	}
	cpu := t.cpu()
	t.record(Op{Kind: OpUnshare, CPU: cpu, PFN: pfn})
	err := t.D.UnshareHyp(cpu, pfn)
	t.count(hyp.HCHostUnshareHyp, err)
	if err == nil {
		t.m.setPage(pfn, pageHostOwned)
	}
	return true
}

func (t *Tester) opDonate() bool {
	pfn, err := t.allocPage()
	if err != nil {
		return false
	}
	cpu := t.cpu()
	t.record(Op{Kind: OpDonate, CPU: cpu, PFN: pfn, Nr: 1})
	err = t.D.DonateHyp(cpu, pfn, 1)
	t.count(hyp.HCHostDonateHyp, err)
	if err == nil {
		t.m.setPage(pfn, pageDonatedHyp)
	}
	return true
}

func (t *Tester) opInitVM() bool {
	if len(t.m.vms) >= 6 {
		return false
	}
	nrVCPUs := t.rng.Intn(3) + 1
	cpu := t.cpu()
	h, donated, err := t.D.InitVM(cpu, nrVCPUs)
	t.record(Op{Kind: OpInitVM, CPU: cpu, Nr: uint64(nrVCPUs), H: h})
	if err != nil {
		t.count(hyp.HCInitVM, err)
		return true
	}
	t.count(hyp.HCInitVM, nil)
	t.stats.VMsCreated++
	vm := &vmModel{handle: h, mapped: map[uint64]arch.PFN{}, shared: map[uint64]arch.PFN{}}
	for i := 0; i < nrVCPUs; i++ {
		vm.vcpus = append(vm.vcpus, &vcpuModel{loadedOn: -1})
	}
	t.m.vms[h] = vm
	for _, pfn := range donated {
		t.m.setPage(pfn, pageDonatedHyp)
	}
	return true
}

func (t *Tester) opInitVCPU() bool {
	h, ok := pickRand(t.rng, t.m.anyVM())
	if !ok {
		return false
	}
	vm := t.m.vms[h]
	idx := t.rng.Intn(len(vm.vcpus))
	cpu := t.cpu()
	t.record(Op{Kind: OpInitVCPU, CPU: cpu, H: h, VCPU: idx})
	err := t.D.InitVCPU(cpu, h, idx)
	t.count(hyp.HCInitVCPU, err)
	if err == nil {
		vm.vcpus[idx].initialized = true
	}
	return true
}

func (t *Tester) opTopup() bool {
	h, ok := pickRand(t.rng, t.m.anyVM())
	if !ok {
		return false
	}
	vm := t.m.vms[h]
	idx := t.rng.Intn(len(vm.vcpus))
	if !vm.vcpus[idx].initialized || vm.vcpus[idx].loadedOn >= 0 {
		return false
	}
	nr := uint64(t.rng.Intn(4) + 2)
	cpu := t.cpu()
	t.record(Op{Kind: OpTopup, CPU: cpu, H: h, VCPU: idx, Nr: nr})
	pfns, err := t.D.Topup(cpu, h, idx, nr)
	t.count(hyp.HCTopupVCPUMemcache, err)
	if err == nil {
		vm.vcpus[idx].topups += len(pfns)
		for _, pfn := range pfns {
			t.m.setPage(pfn, pageMemcache)
		}
	}
	return true
}

func (t *Tester) opLoad() bool {
	cpu := t.loadTarget()
	if cpu < 0 {
		return false
	}
	h, ok := pickRand(t.rng, t.m.anyVM())
	if !ok {
		return false
	}
	vm := t.m.vms[h]
	idx := t.rng.Intn(len(vm.vcpus))
	vc := vm.vcpus[idx]
	if !vc.initialized || vc.loadedOn >= 0 {
		return false
	}
	t.record(Op{Kind: OpLoad, CPU: cpu, H: h, VCPU: idx})
	err := t.D.VCPULoad(cpu, h, idx)
	t.count(hyp.HCVCPULoad, err)
	if err == nil {
		vc.loadedOn = cpu
		t.m.loadedVM[cpu] = h
		t.m.loadedVCPU[cpu] = idx
	}
	return true
}

func (t *Tester) opPut() bool {
	cpu, ok := pickRand(t.rng, t.m.loadedCPUs())
	if !ok {
		return false
	}
	h := t.m.loadedVM[cpu]
	idx := t.m.loadedVCPU[cpu]
	t.record(Op{Kind: OpPut, CPU: cpu})
	err := t.D.VCPUPut(cpu)
	t.count(hyp.HCVCPUPut, err)
	if err == nil {
		if vm := t.m.vms[h]; vm != nil {
			vm.vcpus[idx].loadedOn = -1
		}
		t.m.loadedVM[cpu] = 0
		t.m.loadedVCPU[cpu] = -1
	}
	return true
}

func (t *Tester) opRun() bool {
	cpu, ok := pickRand(t.rng, t.m.loadedCPUs())
	if !ok {
		return false
	}
	h := t.m.loadedVM[cpu]
	vm := t.m.vms[h]
	idx := t.m.loadedVCPU[cpu]

	// Script a random guest event first.
	if vm != nil {
		switch t.rng.Intn(4) {
		case 0: // access a mapped gfn (succeeds) or unmapped (fault exit)
			gfn := uint64(t.rng.Intn(64))
			t.queueGuestOp(h, idx, hyp.GuestOp{
				Kind: hyp.GuestAccess, IPA: arch.IPA(gfn << arch.PageShift),
				Write: t.rng.Intn(2) == 0, Value: t.rng.Uint64(),
			})
		case 1: // share a mapped page with the host
			if gfns := sortedKeys(vm.mapped); len(gfns) > 0 {
				gfn := gfns[t.rng.Intn(len(gfns))]
				if _, already := vm.shared[gfn]; !already {
					t.queueGuestOp(h, idx, hyp.GuestOp{Kind: hyp.GuestShareHost, IPA: arch.IPA(gfn << arch.PageShift)})
					vm.shared[gfn] = vm.mapped[gfn]
				}
			}
		case 2: // unshare
			if gfns := sortedKeys(vm.shared); len(gfns) > 0 {
				gfn := gfns[t.rng.Intn(len(gfns))]
				t.queueGuestOp(h, idx, hyp.GuestOp{Kind: hyp.GuestUnshareHost, IPA: arch.IPA(gfn << arch.PageShift)})
				delete(vm.shared, gfn)
			}
		}
	}
	t.record(Op{Kind: OpRun, CPU: cpu})
	_, err := t.D.VCPURun(cpu)
	t.count(hyp.HCVCPURun, err)
	t.stats.GuestRuns++
	return true
}

// opLoadProgram installs a small random guest program on an unloaded
// vCPU: random arithmetic over a few registers, memory traffic at
// model-plausible guest addresses (mapped ones mostly succeed,
// unmapped ones exercise the fault/exit path), and scattered yields so
// runs terminate. The interpreter's restart semantics and the oracle's
// environment treatment of guest registers both get stressed this way.
func (t *Tester) opLoadProgram() bool {
	h, ok := pickRand(t.rng, t.m.anyVM())
	if !ok {
		return false
	}
	vm := t.m.vms[h]
	idx := t.rng.Intn(len(vm.vcpus))
	if !vm.vcpus[idx].initialized || vm.vcpus[idx].loadedOn >= 0 {
		return false
	}
	gfns := sortedKeys(vm.mapped)
	n := t.rng.Intn(10) + 4
	prog := make([]hyp.Insn, 0, n+1)
	for i := 0; i < n; i++ {
		switch t.rng.Intn(5) {
		case 0:
			prog = append(prog, hyp.Insn{Op: hyp.OpMovi, Dst: t.rng.Intn(4) + 1, Imm: t.rng.Uint64() % 1000})
		case 1:
			prog = append(prog, hyp.Insn{Op: hyp.OpAdd, Dst: t.rng.Intn(4) + 1, Src: t.rng.Intn(4) + 1})
		case 2, 3:
			gfn := uint64(t.rng.Intn(64))
			if len(gfns) > 0 && t.rng.Intn(2) == 0 {
				gfn = gfns[t.rng.Intn(len(gfns))] // likely mapped
			}
			op := hyp.OpLoad
			if t.rng.Intn(2) == 0 {
				op = hyp.OpStore
			}
			prog = append(prog, hyp.Insn{Op: op, Dst: t.rng.Intn(4) + 1, Src: 0, Imm: gfn << arch.PageShift})
		case 4:
			prog = append(prog, hyp.Insn{Op: hyp.OpYield})
		}
	}
	prog = append(prog, hyp.Insn{Op: hyp.OpHalt})
	t.record(Op{Kind: OpLoadProgram, H: h, VCPU: idx, Prog: prog})
	return t.D.HV.LoadGuestProgram(h, idx, prog)
}

func (t *Tester) opMapGuest() bool {
	cpu, ok := pickRand(t.rng, t.m.loadedCPUs())
	if !ok {
		return false
	}
	h := t.m.loadedVM[cpu]
	vm := t.m.vms[h]
	if vm == nil {
		return false
	}
	vc := vm.vcpus[t.m.loadedVCPU[cpu]]
	if vc.topups < 3 {
		return false // predictor: would just churn -ENOMEM
	}
	pfn, err := t.allocPage()
	if err != nil {
		return false
	}
	gfn := uint64(t.rng.Intn(64))
	if _, taken := vm.mapped[gfn]; taken {
		t.freePage(pfn)
		return false
	}
	t.record(Op{Kind: OpMapGuest, CPU: cpu, PFN: pfn, GFN: gfn})
	err = t.D.MapGuest(cpu, pfn, gfn)
	t.count(hyp.HCHostMapGuest, err)
	if err == nil {
		vm.mapped[gfn] = pfn
		t.m.setPage(pfn, pageGuestOwned)
		vc.topups -= 3 // approximation of table-page consumption
		if vc.topups < 0 {
			vc.topups = 0
		}
	}
	return true
}

func (t *Tester) opTeardown() bool {
	h, ok := pickRand(t.rng, t.m.anyVM())
	if !ok {
		return false
	}
	vm := t.m.vms[h]
	for _, vc := range vm.vcpus {
		if vc.loadedOn >= 0 {
			return false // predictor: EBUSY, not interesting every time
		}
	}
	cpu := t.cpu()
	t.record(Op{Kind: OpTeardown, CPU: cpu, H: h})
	err := t.D.TeardownVM(cpu, h)
	t.count(hyp.HCTeardownVM, err)
	if err == nil {
		t.stats.VMsDestroyed++
		delete(t.m.vms, h)
		// Everything it held becomes reclaimable; the model marks the
		// pages it knows about (its memcache and metadata pages it
		// cannot attribute individually — reclaim probing of those is
		// left to the error probes).
		for _, gfn := range sortedKeys(vm.mapped) {
			pfn := vm.mapped[gfn]
			t.m.setPage(pfn, pageReclaimable)
			t.m.reclaim[pfn] = true
		}
	}
	return true
}

func (t *Tester) opReclaim() bool {
	pfn, found := t.m.minReclaim()
	if !found {
		return false
	}
	cpu := t.cpu()
	t.record(Op{Kind: OpReclaim, CPU: cpu, PFN: pfn})
	err := t.D.ReclaimPage(cpu, pfn)
	t.count(hyp.HCHostReclaimPage, err)
	delete(t.m.reclaim, pfn)
	if err == nil {
		t.m.setPage(pfn, pageHostOwned)
	}
	return true
}

// opErrorProbe deliberately drives safe error paths: calls that return
// an errno without endangering the host.
func (t *Tester) opErrorProbe() bool {
	cpu := t.cpu()
	switch t.rng.Intn(6) {
	case 0: // share MMIO
		pfn := arch.PhysToPFN(hyp.UARTPhys)
		t.record(Op{Kind: OpShare, CPU: cpu, PFN: pfn})
		err := t.D.ShareHyp(cpu, pfn)
		t.count(hyp.HCHostShareHyp, err)
	case 1: // unshare something never shared
		pfn, ok := pickRand(t.rng, t.m.pagesIn(pageHostOwned))
		if !ok {
			return false
		}
		t.record(Op{Kind: OpUnshare, CPU: cpu, PFN: pfn})
		err := t.D.UnshareHyp(cpu, pfn)
		t.count(hyp.HCHostUnshareHyp, err)
	case 2: // bad handle
		t.record(Op{Kind: OpLoad, CPU: cpu, H: hyp.Handle(0xbeef), VCPU: 0})
		err := t.D.VCPULoad(cpu, hyp.Handle(0xbeef), 0)
		t.count(hyp.HCVCPULoad, err)
	case 3: // unknown hypercall
		args := [4]uint64{t.rng.Uint64()}
		t.record(Op{Kind: OpHVCRaw, CPU: cpu, HC: hyp.HC(0x7fff), Args: args})
		_, err := t.D.HVC(cpu, hyp.HC(0x7fff), args[0])
		if err != nil {
			var pe *hyp.PanicError
			if errors.As(err, &pe) {
				t.stats.HypPanics++
			}
		}
		t.stats.Calls++
	case 4: // reclaim garbage
		pfn := arch.PFN(t.rng.Intn(1 << 20))
		t.record(Op{Kind: OpReclaim, CPU: cpu, PFN: pfn})
		err := t.D.ReclaimPage(cpu, pfn)
		t.count(hyp.HCHostReclaimPage, err)
	case 5: // run with nothing loaded
		if t.m.loadedVM[cpu] != 0 {
			return false
		}
		t.record(Op{Kind: OpRun, CPU: cpu})
		_, err := t.D.VCPURun(cpu)
		t.count(hyp.HCVCPURun, err)
	}
	return true
}

// ---------------------------------------------------------------------
// Bug probes: deliberately malicious-host sequences aimed at the exact
// code points where the paper's §5/§6 bugs live. On a correct build
// every probe lands on a safe error path (an errno or a tolerated
// spurious event); on a buggy build the oracle alarms. They exist so a
// short campaign reaches every entry of the faults.All() detection
// matrix, not just the bugs that sit on the mainline state machine.

// topupTarget finds an initialised, unloaded vCPU (the preconditions a
// topup must meet before the memcache code paths are even reached).
func (t *Tester) topupTarget() (hyp.Handle, int, bool) {
	for _, h := range t.m.anyVM() {
		for idx, vc := range t.m.vms[h].vcpus {
			if vc.initialized && vc.loadedOn < 0 {
				return h, idx, true
			}
		}
	}
	return 0, 0, false
}

// uninitVCPU finds a vCPU that was never initialised.
func (t *Tester) uninitVCPU() (hyp.Handle, int, bool) {
	for _, h := range t.m.anyVM() {
		for idx, vc := range t.m.vms[h].vcpus {
			if !vc.initialized {
				return h, idx, true
			}
		}
	}
	return 0, 0, false
}

func (t *Tester) opBugProbe() bool {
	cpu := t.cpu()
	switch t.rng.Intn(7) {
	case 0: // misaligned memcache head (§6 bug 1's trigger)
		h, idx, ok := t.topupTarget()
		if !ok {
			return false
		}
		pfn, ok := pickRand(t.rng, t.m.pagesIn(pageHostOwned))
		if !ok {
			return false
		}
		// Fault the page in so its state is host-owned-mapped; the
		// word at the misaligned head then reads as a nil next link.
		t.record(Op{Kind: OpTouch, CPU: cpu, PFN: pfn, Write: true})
		t.D.Access(cpu, arch.IPA(pfn.Phys()), true)
		t.record(Op{Kind: OpTopupRaw, CPU: cpu, H: h, VCPU: idx, PFN: pfn, Off: 0x800, Nr: 1})
		head := uint64(pfn.Phys()) + 0x800
		ret, err := t.D.HVC(cpu, hyp.HCTopupVCPUMemcache, uint64(h), uint64(idx), head, 1)
		if err == nil && ret < 0 {
			err = hyp.Errno(ret)
		}
		t.count(hyp.HCTopupVCPUMemcache, err)
	case 1: // huge memcache count (§6 bug 2's trigger)
		h, idx, ok := t.topupTarget()
		if !ok {
			return false
		}
		pfn, ok := pickRand(t.rng, t.m.pagesIn(pageHostOwned))
		if !ok {
			return false
		}
		t.record(Op{Kind: OpTopupRaw, CPU: cpu, H: h, VCPU: idx, PFN: pfn, Off: 0, Nr: 0x10000})
		ret, err := t.D.HVC(cpu, hyp.HCTopupVCPUMemcache, uint64(h), uint64(idx), uint64(pfn.Phys()), 0x10000)
		if err == nil && ret < 0 {
			err = hyp.Errno(ret)
		}
		t.count(hyp.HCTopupVCPUMemcache, err)
	case 2: // load an uninitialised vCPU (§6 bug 3's trigger)
		h, idx, ok := t.uninitVCPU()
		if !ok {
			return false
		}
		t.record(Op{Kind: OpLoad, CPU: cpu, H: h, VCPU: idx})
		err := t.D.VCPULoad(cpu, h, idx)
		t.count(hyp.HCVCPULoad, err)
	case 3: // spurious stage 2 fault re-delivery (§6 bug 4's trigger)
		pfn, ok := pickRand(t.rng, t.m.pagesIn(pageHostOwned))
		if !ok {
			return false
		}
		t.record(Op{Kind: OpTouch, CPU: cpu, PFN: pfn, Write: true})
		t.D.Access(cpu, arch.IPA(pfn.Phys()), true)
		t.record(Op{Kind: OpFaultAgain, CPU: cpu, PFN: pfn, Write: true})
		if err := t.D.FaultAgain(cpu, arch.IPA(pfn.Phys()), true); err != nil {
			var pe *hyp.PanicError
			if errors.As(err, &pe) {
				t.stats.HypPanics++
			}
		}
	case 4: // share an already-shared page (share-state / return-value bugs)
		pfn, ok := pickRand(t.rng, t.m.pagesIn(pageSharedHyp))
		if !ok {
			return false
		}
		t.record(Op{Kind: OpShare, CPU: cpu, PFN: pfn})
		err := t.D.ShareHyp(cpu, pfn)
		t.count(hyp.HCHostShareHyp, err)
	case 5: // share-range across a pre-shared page (bad-stop bug)
		run, ok := t.allocContiguous(3)
		if !ok {
			return false
		}
		t.record(Op{Kind: OpShare, CPU: cpu, PFN: run[1]})
		err := t.D.ShareHyp(cpu, run[1])
		t.count(hyp.HCHostShareHyp, err)
		t.record(Op{Kind: OpShareRange, CPU: cpu, PFN: run[0], Nr: 3})
		err = t.D.ShareHypRange(cpu, run[0], 3)
		t.count(hyp.HCHostShareHypRange, err)
		// Phased semantics: pages before the failing phase stay
		// shared regardless of the reported result.
		t.m.setPage(run[0], pageSharedHyp)
		t.m.setPage(run[1], pageSharedHyp)
		t.m.setPage(run[2], pageHostOwned)
	case 6: // stale TLB after unshare (skipped-TLBI bug's trigger)
		pfn, ok := pickRand(t.rng, t.m.pagesIn(pageHostOwned))
		if !ok {
			return false
		}
		if t.m.wouldCrashHost(pfn) {
			t.stats.Rejected++
			return false
		}
		// Share, touch (the access caches the shared-owned translation
		// in the software TLB), then unshare: the unshare's entry
		// rewrite must TLBI that cached walk. On a correct build the
		// sequence is silent; with the skipped-TLBI bug the coherence
		// check alarms at the unshare's host-lock release.
		t.record(Op{Kind: OpShare, CPU: cpu, PFN: pfn})
		if err := t.D.ShareHyp(cpu, pfn); err != nil {
			t.count(hyp.HCHostShareHyp, err)
			return true
		}
		t.count(hyp.HCHostShareHyp, nil)
		t.m.setPage(pfn, pageSharedHyp)
		t.record(Op{Kind: OpTouch, CPU: cpu, PFN: pfn, Write: true})
		t.D.Access(cpu, arch.IPA(pfn.Phys()), true)
		t.record(Op{Kind: OpUnshare, CPU: cpu, PFN: pfn})
		err := t.D.UnshareHyp(cpu, pfn)
		t.count(hyp.HCHostUnshareHyp, err)
		if err == nil {
			t.m.setPage(pfn, pageHostOwned)
		}
	}
	return true
}

func (s Stats) String() string {
	return fmt.Sprintf("steps=%d calls=%d ok=%d errno=%d rejected=%d hostCrashes=%d hypPanics=%d vms=%d/%d",
		s.Steps, s.Calls, s.OKs, s.Errnos, s.Rejected, s.HostCrashes, s.HypPanics,
		s.VMsCreated, s.VMsDestroyed)
}
