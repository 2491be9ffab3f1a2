// Package litmus holds a table-driven two-CPU litmus suite in the
// style of hardware memory-model litmus tests ("Relaxed virtual memory
// in Armv8-A", PAPERS.md): each entry is a tiny fixed scenario — a
// handful of hypercalls split across two vCPU streams — replayed under
// bounded exhaustive schedule enumeration (Enumerate, a DFS over the
// deterministic scheduler's preemption choices up to a depth cap).
//
// The contract, asserted by tier-1 tests:
//
//   - on the clean hypervisor every litmus passes under every
//     enumerated schedule (the forbidden outcome never appears);
//   - with its named faults bug seeded, every litmus is detected by
//     the ghost oracle (or the runtime rank validator) under at least
//     one enumerated schedule, and the failing schedule minimizes to a
//     short replayable prefix.
//
// Litmus scenarios are deliberately hand-written, not fuzzed: they pin
// the specific interleaving windows the scheduler exists to reach —
// lost TLBI ordering, vCPU lifecycle windows, lock-window discipline —
// as permanent regressions independent of campaign luck.
package litmus

import (
	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/bugdemo"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
)

// NCPUs is the litmus machine size: every scenario is a two-vCPU
// program, the smallest shape that has schedules at all.
const NCPUs = 2

// Env is one freshly booted system a single litmus run executes
// against. Boot one per run — litmus replays, like campaign replays,
// are trace-plus-boot recipes, never warm state.
type Env struct {
	HV  *hyp.Hypervisor
	D   *proxy.Driver
	Rec *ghost.Recorder
}

// Boot builds an Env with the oracle attached and the given bugs
// seeded (none for the clean leg).
func Boot(bugs ...faults.Bug) (*Env, error) {
	hv, err := hyp.New(hyp.Config{NrCPUs: NCPUs, Inj: faults.NewInjector(bugs...)})
	if err != nil {
		return nil, err
	}
	rec := ghost.Attach(hv)
	return &Env{HV: hv, D: proxy.New(hv), Rec: rec}, nil
}

// Litmus is one two-CPU scenario. Exactly one of Trace or Streams is
// set: Trace-form litmuses are randtest op sequences split across vCPU
// streams by op.CPU and replayed with randtest.ReplayScheduled;
// Streams-form litmuses build their per-vCPU functions directly (used
// where the scenario is not expressible as hypercall ops, e.g. the
// bugdemo lock inversion).
type Litmus struct {
	Name string
	// Desc says what interleaving window the scenario probes.
	Desc string
	// Bug is the faults bug the seeded leg injects ("" when the buggy
	// variant comes from Streams' seeded flag instead, as for the
	// bugdemo lock inversion).
	Bug faults.Bug
	// Trace, for trace-form litmuses: ops carry CPU 0 or 1.
	Trace *randtest.Trace
	// Streams, for custom-form litmuses: returns one function per
	// vCPU; each must gate every step through s.Boundary(vcpu). seeded
	// selects the buggy variant.
	Streams func(e *Env, s *sched.Scheduler, seeded bool) []func(int)
	// WantErr, for custom-form litmuses: substring the scheduler run
	// error must contain for the seeded leg to count as detected
	// (rank-validator panics surface as run errors, not oracle
	// failures).
	WantErr string
}

// Run executes the litmus once on e under scheduler s, seeded
// selecting the buggy variant for Streams-form scenarios (Trace-form
// scenarios get their bug from the boot injector instead). It returns
// the scheduler's error; oracle verdicts are in e.Rec.
func (l *Litmus) Run(e *Env, s *sched.Scheduler, seeded bool) error {
	if l.Trace != nil {
		return randtest.ReplayScheduled(e.D, l.Trace, s)
	}
	return s.Run(e.HV.Preempt(), l.Streams(e, s, seeded)...)
}

// The lock-window-inversion litmus's own acquisitions (closures in
// Suite).
var (
	suiteLockVMs   = preempt.At(preempt.KindLockAcquire, "vms", "Suite", 0)
	suiteLockGuest = preempt.At(preempt.KindLockAcquire, "guest", "Suite", 0)
)

// Suite returns the litmus table. Scenarios use fixed placeholder PFNs
// and handles — the replay env binds them to real allocations.
func Suite() []Litmus {
	return []Litmus{
		{
			Name: "share-touch-unshare-vs-access",
			Desc: "vCPU0 shares a page with the hypervisor and touches it (caching the shared-owned translation); vCPU1 concurrently unshares it and touches it again. Schedules that order the unshare after the touch rewrite a live host stage 2 entry — without break-before-make TLBI the cached walk goes stale and the oracle's lock-release coherence check alarms.",
			Bug:  faults.BugUnshareSkipTLBI,
			Trace: &randtest.Trace{Ops: []randtest.Op{
				{Kind: randtest.OpAlloc, CPU: 0, PFN: 1},
				{Kind: randtest.OpShare, CPU: 0, PFN: 1},
				{Kind: randtest.OpTouch, CPU: 0, PFN: 1, Write: true},
				{Kind: randtest.OpUnshare, CPU: 1, PFN: 1},
				{Kind: randtest.OpTouch, CPU: 1, PFN: 1, Write: true},
			}},
		},
		{
			Name: "remap-without-tlbi",
			Desc: "vCPU0 shares and touches a page; vCPU1 unshares it and immediately re-shares (remaps) it. The unshare's SharedOwned→Owned rewrite is the break-before-make edge; with the TLBI suppressed the re-map sits under a stale cached walk of the old entry.",
			Bug:  faults.BugUnshareSkipTLBI,
			Trace: &randtest.Trace{Ops: []randtest.Op{
				{Kind: randtest.OpAlloc, CPU: 0, PFN: 1},
				{Kind: randtest.OpShare, CPU: 0, PFN: 1},
				{Kind: randtest.OpTouch, CPU: 0, PFN: 1, Write: false},
				{Kind: randtest.OpUnshare, CPU: 1, PFN: 1},
				{Kind: randtest.OpShare, CPU: 1, PFN: 1},
			}},
		},
		{
			Name: "vcpu-load-window",
			Desc: "vCPU1 creates a VM and initialises its vCPU; vCPU0 loads that vCPU. The spec demands ENOENT for a load of an uninitialised vCPU; the seeded race skips the initialised check, so any schedule landing the load inside the init-vm/init-vcpu window returns OK where the ghost spec computes ENOENT. (The load sits on vCPU 0 so the deterministic lowest-vCPU drain finishes the failing run once the schedule has steered it into the window.)",
			Bug:  faults.BugVCPULoadRace,
			Trace: &randtest.Trace{Ops: []randtest.Op{
				{Kind: randtest.OpInitVM, CPU: 1, Nr: 1, H: 1},
				{Kind: randtest.OpInitVCPU, CPU: 1, H: 1, VCPU: 0},
				{Kind: randtest.OpLoad, CPU: 0, H: 1, VCPU: 0},
			}},
		},
		{
			Name:    "lock-window-inversion",
			Desc:    "vCPU0 reads a VM snapshot under the documented vms→guest lock order while vCPU1 does the same concurrently; the seeded variant takes the bugdemo guest→vms inversion instead, which the runtime rank validator kills at the inverted acquisition — under every schedule, since the discipline is schedule-independent, but the litmus pins that the validator stays armed under cooperative scheduling.",
			WantErr: "rank inversion",
			Streams: func(e *Env, s *sched.Scheduler, seeded bool) []func(int) {
				snapshot := func() *hyp.VM {
					e.HV.VMTableLock().LockAt(suiteLockVMs)
					defer e.HV.VMTableLock().Unlock()
					return e.HV.VMSnapshot(0)
				}
				reader := func(vcpu int) {
					if !s.Boundary(vcpu) {
						return
					}
					vm := snapshot()
					if vm == nil {
						return
					}
					if seeded && vcpu == 0 {
						bugdemo.LockOrderInversion(e.HV, vm)
						return
					}
					// The documented order: vms (rank 1) before guest
					// (rank 2) is what every real hypercall path does;
					// a plain ordered read keeps the clean leg quiet.
					vm.Lock.LockAt(suiteLockGuest)
					defer vm.Lock.Unlock()
					_ = vm
				}
				return []func(int){
					func(vcpu int) {
						if !s.Boundary(vcpu) {
							return
						}
						if _, _, err := e.D.InitVM(vcpu, 1); err != nil {
							return
						}
						reader(vcpu)
					},
					reader,
				}
			},
		},
	}
}
