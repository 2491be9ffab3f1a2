package ghost

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// FailureKind classifies an oracle alarm.
type FailureKind uint8

const (
	// FailSpecMismatch: the recorded post-state disagrees with the
	// specification-computed post-state (the headline check, §4.2.2).
	FailSpecMismatch FailureKind = iota
	// FailHostInvariant: the host stage 2 abstraction found an illegal
	// incidental mapping (the loose bound of §3.1).
	FailHostInvariant
	// FailNonInterference: a component changed between hypercalls
	// while its lock was free (§4.4 check 1).
	FailNonInterference
	// FailSeparation: page-table footprints overlap (§4.4 check 2).
	FailSeparation
	// FailInitLayout: the boot-time hypervisor mapping does not match
	// the expected initial layout (catches the linear-map overlap).
	FailInitLayout
	// FailPanic: the hypervisor panicked mid-handler.
	FailPanic
	// FailSpecIncomplete: the specification declined to produce a
	// post-state (gradual specification, §4.2).
	FailSpecIncomplete
	// FailCacheDivergence: the incremental abstraction cache and the
	// full recompute disagree (differential self-check, VerifyCache).
	// This is a bug in the ghost machinery itself, never in the
	// hypervisor under test.
	FailCacheDivergence
	// FailStaleTLB: a software-TLB entry disagrees with the page table
	// it was filled from — the mutation that changed the translation
	// never issued the break-before-make TLB invalidation.
	FailStaleTLB
)

func (k FailureKind) String() string {
	switch k {
	case FailSpecMismatch:
		return "spec-mismatch"
	case FailHostInvariant:
		return "host-invariant"
	case FailNonInterference:
		return "non-interference"
	case FailSeparation:
		return "separation"
	case FailInitLayout:
		return "init-layout"
	case FailPanic:
		return "hyp-panic"
	case FailSpecIncomplete:
		return "spec-incomplete"
	case FailCacheDivergence:
		return "cache-divergence"
	case FailStaleTLB:
		return "stale-tlb"
	}
	return fmt.Sprintf("FailureKind(%d)", uint8(k))
}

// Failure is one oracle alarm.
type Failure struct {
	Kind   FailureKind
	CPU    int
	Call   CallData
	Detail string
	// History is the flight-recorder dump of the failing CPU at alarm
	// time, oldest trap first; the failing trap itself is the newest
	// entry. Nil when telemetry is disabled or the recorder has no
	// hypervisor attached.
	History []telemetry.TrapEvent
}

func (f Failure) String() string {
	return fmt.Sprintf("[%v] %s — %s", f.Kind, f.Call.String(), f.Detail)
}

// Stats are the recorder's counters.
type Stats struct {
	Traps    int // exceptions observed
	Checks   int // oracle comparisons executed
	Passed   int
	Failures int
	// MapletsLive is the number of maplets in the shared ghost copy —
	// the dominant term of the ghost memory impact (§6 performance).
	MapletsLive int
	// Cache aggregates the abstraction caches' outcomes across all
	// components (hyp stage 1, host stage 2, every guest stage 2).
	Cache CacheStats
}

// cpuRec is the per-hardware-thread recording slot (the thread-local
// storage of the instrumented build). Its states are reused from trap
// to trap: nothing outside the trap keeps them (OnEvent receives
// clones), and every component they hold is either freshly recorded or
// immutable once recorded.
type cpuRec struct {
	active bool
	pre    *State
	post   *State
	// expected is the specification's post-state buffer.
	expected *State
	// preLocal and postLocal back pre.Locals[cpu] and post.Locals[cpu].
	preLocal, postLocal CPULocal
	call                CallData
	// sessions records every lock session of every component within
	// the current trap, for the transactional checks of phased
	// hypercalls and for OnEvent. keepSessions says whether this trap
	// needs them; other traps skip the per-session snapshots.
	sessions     Sessions
	keepSessions bool
}

// Recorder implements hyp.Instrumentation: it computes and records
// abstractions at the ownership-respecting points (Fig 6), maintains
// the single shared ghost copy for the non-interference check, and
// runs the specification oracle at each trap exit.
type Recorder struct {
	hv *hyp.Hypervisor

	// tracer/lane mirror the hypervisor's tracing identity (taken from
	// hv at Attach): oracle spans land on the same lane as the trap
	// spans they nest under.
	tracer *trace.Tracer
	lane   int

	// mu guards shared, failures, and counters. The ghost machinery
	// adds this lock for its own data; the hypervisor's own locking is
	// untouched (paper §3.2).
	mu sync.Mutex
	//ghost:guards lock=self
	shared   *State
	failures []Failure
	stats    Stats
	// hostFootprint is the host table's own frames as of the last
	// host-lock release; the separation check reads it instead of
	// re-interpreting the table.
	hostFootprint PageSet

	// Incremental abstraction caches, one per component page table
	// (see cache.go). Each has its own lock; gcMu guards only the
	// guest-cache map structure.
	hypCache    PgtableCache
	hostCache   hostCache
	vmsCache    vmsCache
	gcMu        sync.Mutex
	guestCaches map[hyp.Handle]*PgtableCache

	// sepGen counts changes to the separation check's inputs (the
	// shared footprints and the carve-out); sepClean is one more than
	// the sepGen the last clean check saw, 0 before any. Both are
	// guarded by mu.
	sepGen, sepClean uint64

	// VerifyCache, when set, recomputes every abstraction from scratch
	// beside the cached path and raises FailCacheDivergence if they
	// disagree — the differential self-check of the cache machinery.
	VerifyCache bool

	cpus []*cpuRec

	// OnFailure, when set, is called (under mu) for each alarm;
	// used by the harness for live diff printing.
	OnFailure func(Failure)

	// OnEvent, when set, receives every checked trap as a TraceEvent
	// (for trace recording / offline replay). Called synchronously on
	// the trapping CPU's thread.
	OnEvent func(TraceEvent)
}

// Attach builds a recorder, wires it into the hypervisor, records the
// initial abstraction of every component, and checks the boot-time
// layout. It must be called before any hypercall traffic.
//
//ghostlint:ignore lockcheck guardcheck boot-time snapshot: no hypercall traffic exists yet, so the lock-free reads of every component are sound
func Attach(hv *hyp.Hypervisor) *Recorder {
	r := &Recorder{
		hv:          hv,
		shared:      NewState(),
		cpus:        make([]*cpuRec, hv.Globals().NrCPUs),
		guestCaches: make(map[hyp.Handle]*PgtableCache),
	}
	for i := range r.cpus {
		r.cpus[i] = &cpuRec{}
	}
	r.tracer, r.lane = hv.Tracer()

	// Initial recording: no traffic yet, so reading without locks is
	// sound. This snapshot seeds the non-interference baseline and
	// warms the abstraction caches.
	r.shared.Globals = AbstractGlobals(hv)
	r.shared.Pkvm = r.abstractHyp(bootCPU)
	host, hostFP, herr := r.abstractHost(bootCPU)
	r.shared.Host = host
	r.hostFootprint = hostFP
	r.shared.VMs = r.vmsCache.abstract(hv)

	if herr != nil {
		r.failOn(bootCPU, FailHostInvariant, herr.Error())
	}
	if detail := CheckInitLayout(r.shared); detail != "" {
		r.failOn(bootCPU, FailInitLayout, detail)
	}

	hv.SetInstrumentation(r)
	return r
}

// ---------------------------------------------------------------------
// Cached abstraction paths. These wrap the Abstract* reference
// functions with the incremental caches; VerifyCache re-runs the
// reference implementation beside each and alarms on any divergence.

// bootCPU stands for "no trapping CPU" in the cpu argument of the
// recording paths: the boot-time recording in Attach.
const bootCPU = -1

// abstractHyp is AbstractHyp through the cache.
//
//ghost:requires lock=dynamic
func (r *Recorder) abstractHyp(cpu int) Pkvm {
	abs, _ := r.hypCache.Interpret(r.hv.Mem, r.hv.HypPGTRoot())
	r.verifyCached(cpu, "pkvm stage 1", abs, r.hv.HypPGTRoot())
	return Pkvm{Present: true, PGT: abs}
}

// abstractHost is AbstractHostWithFootprint through the cache.
//
//ghost:requires lock=dynamic
func (r *Recorder) abstractHost(cpu int) (Host, PageSet, error) {
	host, fp, herr := r.hostCache.abstract(r.hv)
	r.verifyHost(cpu, host, fp, herr)
	return host, fp, herr
}

// verifyHost compares the cached host projection, footprint and
// invariant verdict against a full recompute, when VerifyCache is set.
//
//ghost:requires lock=dynamic
func (r *Recorder) verifyHost(cpu int, host Host, fp PageSet, herr error) {
	if !r.VerifyCache {
		return
	}
	sp := r.tracer.Begin(r.lane, spanGhostVerify)
	defer sp.End()
	refHost, refFP, refErr := AbstractHostWithFootprint(r.hv)
	if !EqualMappings(refHost.Annot, host.Annot) || !EqualMappings(refHost.Shared, host.Shared) ||
		!refFP.Equal(fp) {
		r.failOn(cpu, FailCacheDivergence, "host stage 2: cached abstraction diverges from full recompute:\n"+
			diffHost(refHost, host)+
			fmt.Sprintf("  footprint: full %v, cached %v\n", refFP, fp))
	}
	if errText(refErr) != errText(herr) {
		r.failOn(cpu, FailCacheDivergence, fmt.Sprintf(
			"host stage 2: cached invariant verdict %q, full recompute %q", errText(herr), errText(refErr)))
	}
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// abstractVMs is AbstractVMs through the cache.
//
//ghost:requires lock=vms
func (r *Recorder) abstractVMs(cpu int) VMs {
	vms := r.vmsCache.abstract(r.hv)
	r.verifyVMs(cpu, vms)
	return vms
}

// verifyVMs compares the cached VM table against a full recompute,
// when VerifyCache is set.
//
//ghost:requires lock=vms
func (r *Recorder) verifyVMs(cpu int, vms VMs) {
	if !r.VerifyCache {
		return
	}
	sp := r.tracer.Begin(r.lane, spanGhostVerify)
	defer sp.End()
	if ref := AbstractVMs(r.hv); !ref.Equal(vms) {
		r.failOn(cpu, FailCacheDivergence,
			"vm table: cached abstraction diverges from full recompute:\n"+diffVMs(ref, vms))
	}
}

// abstractGuest is AbstractGuest through the per-VM cache.
//
//ghost:requires lock=dynamic
func (r *Recorder) abstractGuest(cpu int, h hyp.Handle) GuestPgt {
	slot := int(h - hyp.HandleOffset)
	vm := r.hv.VMSnapshot(slot)
	if vm == nil || vm.PGT == nil {
		// Torn down (or never created): the table is gone, and with it
		// the cache's subject.
		r.guestCache(h).Invalidate()
		return GuestPgt{Present: true, PGT: AbstractPgtable{}}
	}
	abs, _ := r.guestCache(h).Interpret(r.hv.Mem, vm.PGT.Root())
	r.verifyCached(cpu, h.String()+" stage 2", abs, vm.PGT.Root())
	return GuestPgt{Present: true, PGT: abs}
}

// guestCache returns the cache for one VM's stage 2, creating it on
// first use.
func (r *Recorder) guestCache(h hyp.Handle) *PgtableCache {
	r.gcMu.Lock()
	defer r.gcMu.Unlock()
	c := r.guestCaches[h]
	if c == nil {
		c = &PgtableCache{}
		r.guestCaches[h] = c
	}
	return c
}

// verifyCached compares a cached page-table abstraction against a
// fresh full interpretation. Sound because hooks run under the
// component's lock; with a hypervisor buggy enough to race here, a
// spurious divergence alarm is the least misleading outcome available.
func (r *Recorder) verifyCached(cpu int, name string, got AbstractPgtable, root arch.PhysAddr) {
	if !r.VerifyCache {
		return
	}
	sp := r.tracer.Begin(r.lane, spanGhostVerify)
	defer sp.End()
	ref := InterpretPgtable(r.hv.Mem, root)
	if !EqualMappings(ref.Mapping, got.Mapping) || !ref.Footprint.Equal(got.Footprint) {
		r.failOn(cpu, FailCacheDivergence, name+": cached abstraction diverges from full recompute:\n"+
			diffPages(DiffMappings(ref.Mapping, got.Mapping))+
			fmt.Sprintf("  footprint: full %v, cached %v\n", ref.Footprint, got.Footprint))
	}
}

// failOn records an alarm raised by the trap in flight on cpu, or by
// the boot-time recording when cpu is bootCPU.
func (r *Recorder) failOn(cpu int, kind FailureKind, detail string) {
	if cpu == bootCPU {
		r.fail(Failure{Kind: kind, Call: CallData{Boot: true}, Detail: detail})
		return
	}
	r.fail(Failure{Kind: kind, CPU: cpu, Call: r.cpus[cpu].call, Detail: detail})
}

// fail records an alarm. Callers must not hold mu.
func (r *Recorder) fail(f Failure) {
	// The exit locals belong to the CPU's reused recording buffers.
	f.Call.exitLocals = nil
	if !telemetry.Disabled() {
		// Forensics: attach the failing CPU's recent trap history. The
		// flight record of the current trap is written before TrapExit
		// runs the oracle, so the dump ends with the failing trap.
		// Boot-time alarms have no trapping CPU to dump.
		if f.History == nil && r.hv != nil && !f.Call.Boot {
			f.History = r.hv.FlightRecorder().Dump(f.CPU)
		}
	}
	r.mu.Lock()
	r.failures = append(r.failures, f)
	r.stats.Failures++
	cb := r.OnFailure
	r.mu.Unlock()
	if cb != nil {
		cb(f)
	}
}

// Failures returns a copy of all alarms so far.
func (r *Recorder) Failures() []Failure {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Failure(nil), r.failures...)
}

// ResetFailures clears the alarm list (between test cases).
func (r *Recorder) ResetFailures() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = nil
}

// Stats returns the counters.
func (r *Recorder) Stats() Stats {
	var cs CacheStats
	cs.add(r.hypCache.Stats())
	cs.add(r.hostCache.pgt.Stats())
	r.gcMu.Lock()
	for _, c := range r.guestCaches {
		cs.add(c.Stats())
	}
	r.gcMu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Cache = cs
	s.MapletsLive = r.shared.Pkvm.PGT.Mapping.NrMaplets() +
		r.shared.Host.Annot.NrMaplets() + r.shared.Host.Shared.NrMaplets()
	for _, g := range r.shared.Guests {
		s.MapletsLive += g.PGT.Mapping.NrMaplets()
	}
	return s
}

// ---------------------------------------------------------------------
// hyp.Instrumentation implementation — the Fig 6 timeline.

// TrapEntry is point (1): begin recording the pre-state with the
// thread-local data.
func (r *Recorder) TrapEntry(cpu int, reason arch.ExitReason) {
	sp := r.tracer.Begin(r.lane, spanGhostEntry)
	defer sp.End()
	rec := r.cpus[cpu]
	rec.active = true
	rec.pre = reuseState(rec.pre)
	rec.post = reuseState(rec.post)
	rec.call = CallData{CPU: cpu, Reason: reason, Fault: r.hv.CPUs[cpu].Fault}

	r.mu.Lock()
	rec.pre.Globals = r.shared.Globals
	r.mu.Unlock()
	rec.preLocal = AbstractLocal(r.hv, cpu)
	rec.pre.Locals[cpu] = &rec.preLocal

	rec.keepSessions = r.OnEvent != nil || reason == arch.ExitHVC && isPhased(rec.call.HC(rec.pre))
	if rec.keepSessions {
		if rec.sessions == nil {
			rec.sessions = make(Sessions)
		}
		clear(rec.sessions)
	}
}

// reuseState empties s for the next trap, or makes a state if there is
// none yet.
func reuseState(s *State) *State {
	if s == nil {
		return NewState()
	}
	s.reset()
	return s
}

// LockAcquired is points (2)-(3): record the component's abstraction
// into the pre-state (first acquisition only) and open a new lock
// session, after checking the component has not changed since it was
// last recorded (§4.4 non-interference).
//
//ghost:requires lock=dynamic
func (r *Recorder) LockAcquired(cpu int, c hyp.Component) {
	rec := r.cpus[cpu]
	if !rec.active {
		return
	}
	snap := r.recordComponent(cpu, c, true)
	if rec.keepSessions {
		rec.sessions[c] = append(rec.sessions[c], &Session{Pre: snap})
	}
}

// LockReleasing is points (4)-(5): record the component's abstraction
// into the post-state, close the lock session, refresh the shared
// copy, and run the separation and TLB-coherence checks.
//
//ghost:requires lock=dynamic
func (r *Recorder) LockReleasing(cpu int, c hyp.Component) {
	rec := r.cpus[cpu]
	if !rec.active {
		return
	}
	snap := r.recordComponent(cpu, c, false)
	if ses := rec.sessions[c]; rec.keepSessions && len(ses) > 0 && ses[len(ses)-1].Post == nil {
		ses[len(ses)-1].Post = snap
	}
	r.checkSeparation(cpu)
	r.checkTLB(cpu, c)
}

// checkTLB runs the software-TLB coherence check for the component
// whose lock is about to be released: every cached translation tagged
// with the component's VMID must still agree with the component's page
// table. A disagreement means a mutation skipped its break-before-make
// TLB invalidation — real hardware would keep serving the old
// translation. Running inside LockReleasing makes the table quiescent
// for the re-walk.
//
//ghost:requires lock=dynamic
func (r *Recorder) checkTLB(cpu int, c hyp.Component) {
	sp := r.tracer.Begin(r.lane, spanGhostTLB)
	defer sp.End()
	var vmid arch.VMID
	switch c.Kind {
	case hyp.CompHost:
		vmid = hyp.VMIDHost
	case hyp.CompHyp:
		vmid = hyp.VMIDHyp
	case hyp.CompGuest:
		vmid = hyp.VMIDForHandle(c.Handle)
	default:
		return // the VM table owns no translations
	}
	if stale := r.hv.TLB().CheckCoherence(vmid); len(stale) > 0 {
		r.failOn(cpu, FailStaleTLB, strings.Join(stale, "\n"))
	}
}

// recordComponent computes one component's abstraction, stores it into
// the trap's pre- or post-state, and, when the trap keeps lock
// sessions, returns a snapshot holding just that component (the
// lock-session record; nil otherwise). acquire selects the acquire
// side (non-interference comparison, keep-first into the pre-state) vs
// the release side (refresh the shared copy, overwrite-last into the
// post-state).
//
//ghost:requires lock=dynamic
func (r *Recorder) recordComponent(cpu int, c hyp.Component, acquire bool) *State {
	sp := r.tracer.Begin(r.lane, spanGhostRecord[c.Kind])
	defer sp.End()
	rec := r.cpus[cpu]
	into := rec.post
	if acquire {
		into = rec.pre
	}
	var snap *State
	if rec.keepSessions {
		snap = NewState()
	}
	switch c.Kind {
	case hyp.CompHost:
		host, hostFP, herr := r.abstractHost(cpu)
		if herr != nil {
			r.failOn(cpu, FailHostInvariant, herr.Error())
		}
		if snap != nil {
			snap.Host = host
		}
		if acquire {
			r.nonInterference(cpu, func(base *State) string {
				if base.Host.Present && !(EqualMappings(base.Host.Annot, host.Annot) &&
					EqualMappings(base.Host.Shared, host.Shared)) {
					return "host stage 2 changed while unlocked:\n" + diffHost(base.Host, host)
				}
				return ""
			})
			if into.Host.Present {
				return snap // re-acquisition: keep the first pre
			}
		} else {
			r.mu.Lock()
			r.shared.Host = Host{Present: true, Annot: host.Annot.Clone(), Shared: host.Shared.Clone()}
			if !r.hostFootprint.Equal(hostFP) {
				r.sepGen++
			}
			r.hostFootprint = hostFP
			r.mu.Unlock()
		}
		into.Host = host

	case hyp.CompHyp:
		pk := r.abstractHyp(cpu)
		if snap != nil {
			snap.Pkvm = pk
		}
		if acquire {
			r.nonInterference(cpu, func(base *State) string {
				if base.Pkvm.Present && !EqualMappings(base.Pkvm.PGT.Mapping, pk.PGT.Mapping) {
					return "pkvm stage 1 changed while unlocked:\n" +
						diffPages(DiffMappings(base.Pkvm.PGT.Mapping, pk.PGT.Mapping))
				}
				return ""
			})
			if into.Pkvm.Present {
				return snap
			}
		} else {
			r.mu.Lock()
			if !r.shared.Pkvm.PGT.Footprint.Equal(pk.PGT.Footprint) {
				r.sepGen++
			}
			r.shared.Pkvm = Pkvm{Present: true, PGT: pk.PGT.Clone()}
			r.mu.Unlock()
		}
		into.Pkvm = pk

	case hyp.CompVMTable:
		// The table and its VMInfos are immutable once recorded, so
		// the snapshot, the trap's state and the shared copy all hold
		// the same one.
		vms := r.abstractVMs(cpu)
		if snap != nil {
			snap.VMs = vms
		}
		if acquire {
			r.nonInterference(cpu, func(base *State) string {
				if base.VMs.Present && !base.VMs.Equal(vms) {
					return "vm table changed while unlocked:\n" + diffVMs(base.VMs, vms)
				}
				return ""
			})
			if into.VMs.Present {
				return snap
			}
		} else {
			r.mu.Lock()
			r.shared.VMs = vms
			r.mu.Unlock()
		}
		into.VMs = vms

	case hyp.CompGuest:
		g := r.abstractGuest(cpu, c.Handle)
		if snap != nil {
			snap.Guests[c.Handle] = &GuestPgt{Present: true, PGT: g.PGT.Clone()}
		}
		if acquire {
			r.nonInterference(cpu, func(base *State) string {
				if b, ok := base.Guests[c.Handle]; ok && b.Present &&
					!EqualMappings(b.PGT.Mapping, g.PGT.Mapping) {
					return fmt.Sprintf("guest %v stage 2 changed while unlocked", c.Handle)
				}
				return ""
			})
			if cur, ok := into.Guests[c.Handle]; ok && cur.Present {
				return snap
			}
		} else {
			r.mu.Lock()
			if b, ok := r.shared.Guests[c.Handle]; !ok || !b.Present || !b.PGT.Footprint.Equal(g.PGT.Footprint) {
				r.sepGen++
			}
			r.shared.Guests[c.Handle] = &GuestPgt{Present: true, PGT: g.PGT.Clone()}
			r.mu.Unlock()
		}
		into.Guests[c.Handle] = &g
	}
	return snap
}

// nonInterference is the §4.4 check 1 at a lock acquire: diff, run
// under mu against the shared copy, describes how the component
// changed since it was last recorded, or returns "" if it did not.
func (r *Recorder) nonInterference(cpu int, diff func(base *State) string) {
	sp := r.tracer.Begin(r.lane, spanGhostNonInterference)
	defer sp.End()
	r.mu.Lock()
	detail := diff(r.shared)
	r.mu.Unlock()
	if detail != "" {
		r.failOn(cpu, FailNonInterference, detail)
	}
}

// checkSeparation verifies pairwise disjointness of all recorded
// page-table footprints, and that the host/hyp tables stay within the
// boot carve-out (§4.4 check 2). Footprints are sorted run lists, so
// each pairwise check is one linear merge, not a nested set iteration.
// It runs at every lock release, so footprints are named only once a
// violation needs reporting; and when no footprint and not the
// carve-out changed since the last clean check, the verdict cannot
// have changed either, so it skips the merge. A failing check keeps
// re-running on every release.
//
// Every violated pair is reported in one alarm: an earlier version kept
// only the last formatted detail, silently overwriting earlier pairs,
// which hid concurrent overlaps when three or more tables collided.
func (r *Recorder) checkSeparation(cpu int) {
	sp := r.tracer.Begin(r.lane, spanGhostSeparation)
	defer sp.End()
	r.mu.Lock()
	gen := r.sepGen
	if r.sepClean == gen+1 {
		r.mu.Unlock()
		return
	}
	// owner names the pkvm and host tables; guests are named by handle.
	type fp struct {
		owner string
		guest hyp.Handle
		set   PageSet
	}
	name := func(f fp) string {
		if f.owner != "" {
			return f.owner
		}
		return f.guest.String()
	}
	fps := make([]fp, 0, 2+len(r.shared.Guests))
	if r.shared.Pkvm.Present {
		fps = append(fps, fp{owner: "pkvm", set: r.shared.Pkvm.PGT.Footprint})
	}
	if r.shared.Host.Present {
		fps = append(fps, fp{owner: "host", set: r.hostFootprint})
	}
	for h, g := range r.shared.Guests {
		if g.Present {
			fps = append(fps, fp{guest: h, set: g.PGT.Footprint})
		}
	}
	g := r.shared.Globals
	r.mu.Unlock()

	carveStart := arch.PhysToPFN(g.CarveStart)
	carveEnd := carveStart + arch.PFN(g.CarveSize>>arch.PageShift)
	var details []string
	for i := range fps {
		for j := i + 1; j < len(fps); j++ {
			if pfn, ok := fps[i].set.FirstOverlap(fps[j].set); ok {
				details = append(details, fmt.Sprintf("footprints of %s and %s overlap at frame %#x",
					name(fps[i]), name(fps[j]), uint64(pfn)))
			}
		}
		if fps[i].owner != "" {
			if pfn, ok := fps[i].set.FirstOutside(carveStart, carveEnd); ok {
				details = append(details, fmt.Sprintf("%s table frame %#x outside the carve-out",
					fps[i].owner, uint64(pfn)))
			}
		}
	}
	if len(details) > 0 {
		sort.Strings(details)
		r.failOn(cpu, FailSeparation, strings.Join(details, "\n"))
		return
	}
	r.mu.Lock()
	r.sepClean = max(r.sepClean, gen+1)
	r.mu.Unlock()
}

// ReadOnce records a nondeterministic host-memory read (§4.3).
func (r *Recorder) ReadOnce(cpu int, pa arch.PhysAddr, val uint64) {
	rec := r.cpus[cpu]
	if !rec.active {
		return
	}
	rec.call.Reads = append(rec.call.Reads, ReadOnceRec{PA: pa, Val: val})
}

// GuestExit records which scripted guest event vcpu_run processed.
func (r *Recorder) GuestExit(cpu int, handle hyp.Handle, vcpu int, op hyp.GuestOp) {
	rec := r.cpus[cpu]
	if !rec.active {
		return
	}
	rec.call.GuestExits = append(rec.call.GuestExits, GuestExitRec{Handle: handle, VCPU: vcpu, Op: op})
}

// MemcacheAlloc records a pop from the loaded vCPU's memcache.
func (r *Recorder) MemcacheAlloc(cpu int, pfn arch.PFN) {
	rec := r.cpus[cpu]
	if !rec.active {
		return
	}
	rec.call.MCOps = append(rec.call.MCOps, MCOp{PFN: pfn})
}

// MemcacheFree records a push back onto the loaded vCPU's memcache.
func (r *Recorder) MemcacheFree(cpu int, pfn arch.PFN) {
	rec := r.cpus[cpu]
	if !rec.active {
		return
	}
	rec.call.MCOps = append(rec.call.MCOps, MCOp{Free: true, PFN: pfn})
}

// HypPanic records an internal panic; the trap never reaches TrapExit.
func (r *Recorder) HypPanic(cpu int, msg string) {
	rec := r.cpus[cpu]
	rec.call.Panicked = true
	rec.call.PanicMsg = msg
	rec.active = false
	r.failOn(cpu, FailPanic, msg)
}

// TrapExit is point (6)-(8): record the final thread-local state and
// the return value, compute the expected post-state from the
// specification, and compare.
func (r *Recorder) TrapExit(cpu int) {
	rec := r.cpus[cpu]
	if !rec.active {
		return
	}
	rec.active = false
	// The check span covers post-state recording, the specification
	// computation, and the ternary comparison — the oracle's per-trap
	// cost, nested inside the enclosing hyp.trap span.
	sp := r.tracer.Begin(r.lane, spanGhostCheck)
	defer sp.End()

	rec.postLocal = AbstractLocal(r.hv, cpu)
	l := &rec.postLocal
	rec.post.Locals[cpu] = l
	rec.post.Globals = rec.pre.Globals
	rec.call.Ret = int64(l.HostRegs[1])
	rec.call.GuestRegsExit = l.GuestRegs
	rec.call.exitLocals = l

	r.mu.Lock()
	r.stats.Traps++
	r.mu.Unlock()

	if r.OnEvent != nil {
		// The receiver may keep the event; the recording buffers are
		// reused by the next trap.
		call := rec.call
		call.exitLocals = nil
		r.OnEvent(TraceEvent{
			Pre:      rec.pre.Clone(),
			Post:     rec.post.Clone(),
			Call:     call,
			Sessions: sessionRecords(rec.sessions),
		})
	}

	if !telemetry.Disabled() {
		ghostChecks.Inc()
	}

	// Phased hypercalls get the transactional per-session check
	// instead of the monolithic comparison: with locks released and
	// retaken mid-call, other CPUs may legitimately change the
	// components between phases.
	if rec.call.Reason == arch.ExitHVC && isPhased(rec.call.HC(rec.pre)) {
		r.mu.Lock()
		r.stats.Checks++
		r.mu.Unlock()
		if detail := checkShareRangePhased(rec.pre, &rec.call, rec.sessions); detail != "" {
			r.failOn(cpu, FailSpecMismatch, detail)
			return
		}
		r.markPassed()
		return
	}

	// (7) compute the expected post-state from pre + call data.
	rec.expected = reuseState(rec.expected)
	ok := ComputePost(rec.expected, rec.pre, &rec.call)

	r.mu.Lock()
	r.stats.Checks++
	r.mu.Unlock()

	if !ok {
		r.failOn(cpu, FailSpecIncomplete, "no specification for this exception")
		return
	}

	// (8) the ternary pre / recorded-post / computed-post comparison.
	if detail := CompareTernary(rec.pre, rec.post, rec.expected, cpu); detail != "" {
		r.failOn(cpu, FailSpecMismatch, detail)
		return
	}
	r.markPassed()
}

// markPassed counts a clean oracle comparison.
func (r *Recorder) markPassed() {
	r.mu.Lock()
	r.stats.Passed++
	r.mu.Unlock()
}
