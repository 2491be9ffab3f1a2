package ghost

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

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
// storage of the instrumented build).
type cpuRec struct {
	active bool
	pre    *State
	post   *State
	call   CallData
	// sessions records every lock session of every component within
	// the current trap, for the transactional checks of phased
	// hypercalls.
	sessions Sessions
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
	gcMu        sync.Mutex
	guestCaches map[hyp.Handle]*PgtableCache

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
	r.shared.Pkvm = r.abstractHyp()
	host, hostFP, herr := r.abstractHost()
	r.shared.Host = host
	r.hostFootprint = hostFP
	r.shared.VMs = AbstractVMs(hv)

	boot := CallData{Boot: true}
	if herr != nil {
		r.fail(Failure{Kind: FailHostInvariant, Call: boot, Detail: herr.Error()})
	}
	if detail := CheckInitLayout(r.shared); detail != "" {
		r.fail(Failure{Kind: FailInitLayout, Call: boot, Detail: detail})
	}

	hv.SetInstrumentation(r)
	return r
}

// ---------------------------------------------------------------------
// Cached abstraction paths. These wrap the Abstract* reference
// functions with the incremental caches; VerifyCache re-runs the
// reference implementation beside each and alarms on any divergence.

// abstractHyp is AbstractHyp through the cache.
//
//ghost:requires lock=dynamic
func (r *Recorder) abstractHyp() Pkvm {
	abs, _ := r.hypCache.Interpret(r.hv.Mem, r.hv.HypPGTRoot())
	r.verifyCached("pkvm stage 1", abs, r.hv.HypPGTRoot())
	return Pkvm{Present: true, PGT: abs}
}

// abstractHost is AbstractHostWithFootprint through the cache.
//
//ghost:requires lock=dynamic
func (r *Recorder) abstractHost() (Host, PageSet, error) {
	host, fp, herr := r.hostCache.abstract(r.hv)
	if r.VerifyCache {
		refHost, refFP, _ := AbstractHostWithFootprint(r.hv)
		if !EqualMappings(refHost.Annot, host.Annot) || !EqualMappings(refHost.Shared, host.Shared) ||
			!refFP.Equal(fp) {
			r.fail(Failure{Kind: FailCacheDivergence,
				Detail: "host stage 2: cached abstraction diverges from full recompute:\n" +
					diffHost(refHost, host) +
					fmt.Sprintf("  footprint: full %v, cached %v\n", refFP, fp)})
		}
	}
	return host, fp, herr
}

// abstractGuest is AbstractGuest through the per-VM cache.
//
//ghost:requires lock=dynamic
func (r *Recorder) abstractGuest(h hyp.Handle) GuestPgt {
	slot := int(h - hyp.HandleOffset)
	vm := r.hv.VMSnapshot(slot)
	if vm == nil || vm.PGT == nil {
		// Torn down (or never created): the table is gone, and with it
		// the cache's subject.
		r.guestCache(h).Invalidate()
		return GuestPgt{Present: true, PGT: AbstractPgtable{}}
	}
	abs, _ := r.guestCache(h).Interpret(r.hv.Mem, vm.PGT.Root())
	r.verifyCached(h.String()+" stage 2", abs, vm.PGT.Root())
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
func (r *Recorder) verifyCached(name string, got AbstractPgtable, root arch.PhysAddr) {
	if !r.VerifyCache {
		return
	}
	sp := r.tracer.Begin(r.lane, spanGhostVerify)
	defer sp.End()
	ref := InterpretPgtable(r.hv.Mem, root)
	if !EqualMappings(ref.Mapping, got.Mapping) || !ref.Footprint.Equal(got.Footprint) {
		r.fail(Failure{Kind: FailCacheDivergence,
			Detail: name + ": cached abstraction diverges from full recompute:\n" +
				diffPages(DiffMappings(ref.Mapping, got.Mapping)) +
				fmt.Sprintf("  footprint: full %v, cached %v\n", ref.Footprint, got.Footprint)})
	}
}

// fail records an alarm; callers may hold mu or not (it re-locks).
func (r *Recorder) fail(f Failure) {
	if !telemetry.Disabled() {
		failureCounter(f.Kind).Inc()
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
	rec := r.cpus[cpu]
	rec.active = true
	rec.pre = NewState()
	rec.post = NewState()
	rec.call = CallData{CPU: cpu, Reason: reason, Fault: r.hv.CPUs[cpu].Fault}
	rec.sessions = make(Sessions)

	r.mu.Lock()
	rec.pre.Globals = r.shared.Globals
	r.mu.Unlock()
	l := AbstractLocal(r.hv, cpu)
	rec.pre.Locals[cpu] = &l
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
	snap := r.recordComponent(rec.pre, c, true)
	rec.sessions[c] = append(rec.sessions[c], &Session{Pre: snap})
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
	snap := r.recordComponent(rec.post, c, false)
	if ses := rec.sessions[c]; len(ses) > 0 && ses[len(ses)-1].Post == nil {
		ses[len(ses)-1].Post = snap
	}
	r.checkSeparation()
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
	tlb := r.hv.TLB()
	if tlb == nil {
		return
	}
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
	if stale := tlb.CheckCoherence(vmid); len(stale) > 0 {
		r.fail(Failure{Kind: FailStaleTLB, CPU: cpu, Call: r.cpus[cpu].call,
			Detail: strings.Join(stale, "\n")})
	}
}

// recordComponent computes one component's abstraction, stores it into
// the pre- or post-state, and returns a snapshot holding just that
// component (the lock-session record). checkBaseline selects the
// acquire side (non-interference comparison, keep-first into the
// pre-state) vs the release side (refresh the shared copy,
// overwrite-last into the post-state).
//
//ghost:requires lock=dynamic
func (r *Recorder) recordComponent(into *State, c hyp.Component, checkBaseline bool) *State {
	sp := r.tracer.Begin(r.lane, spanGhostRecord[c.Kind])
	defer sp.End()
	snap := NewState()
	switch c.Kind {
	case hyp.CompHost:
		host, hostFP, herr := r.abstractHost()
		if herr != nil {
			r.fail(Failure{Kind: FailHostInvariant, Detail: herr.Error()})
		}
		snap.Host = host
		r.mu.Lock()
		if checkBaseline {
			if r.shared.Host.Present && !(EqualMappings(r.shared.Host.Annot, host.Annot) &&
				EqualMappings(r.shared.Host.Shared, host.Shared)) {
				r.mu.Unlock()
				r.fail(Failure{Kind: FailNonInterference,
					Detail: "host stage 2 changed while unlocked:\n" + diffHost(r.shared.Host, host)})
				r.mu.Lock()
			}
			if into.Host.Present {
				r.mu.Unlock()
				return snap // re-acquisition: keep the first pre
			}
		} else {
			r.shared.Host = Host{Present: true, Annot: host.Annot.Clone(), Shared: host.Shared.Clone()}
			r.hostFootprint = hostFP
		}
		r.mu.Unlock()
		into.Host = host

	case hyp.CompHyp:
		pk := r.abstractHyp()
		snap.Pkvm = pk
		r.mu.Lock()
		if checkBaseline {
			if r.shared.Pkvm.Present && !EqualMappings(r.shared.Pkvm.PGT.Mapping, pk.PGT.Mapping) {
				r.mu.Unlock()
				r.fail(Failure{Kind: FailNonInterference,
					Detail: "pkvm stage 1 changed while unlocked:\n" +
						diffPages(DiffMappings(r.shared.Pkvm.PGT.Mapping, pk.PGT.Mapping))})
				r.mu.Lock()
			}
			if into.Pkvm.Present {
				r.mu.Unlock()
				return snap
			}
		} else {
			r.shared.Pkvm = Pkvm{Present: true, PGT: pk.PGT.Clone()}
		}
		r.mu.Unlock()
		into.Pkvm = pk

	case hyp.CompVMTable:
		vms := AbstractVMs(r.hv)
		// snap may alias the freshly abstracted table: spec functions
		// deep-clone via CopyVMs before mutating a post state, and the
		// retained shared copy below is cloned independently.
		snap.VMs = vms
		r.mu.Lock()
		if checkBaseline {
			if r.shared.VMs.Present && !r.shared.VMs.Equal(vms) {
				r.mu.Unlock()
				r.fail(Failure{Kind: FailNonInterference, Detail: "vm table changed while unlocked"})
				r.mu.Lock()
			}
			if into.VMs.Present {
				r.mu.Unlock()
				return snap
			}
		} else {
			r.shared.VMs = vms.Clone()
		}
		r.mu.Unlock()
		into.VMs = vms

	case hyp.CompGuest:
		g := r.abstractGuest(c.Handle)
		snap.Guests[c.Handle] = &GuestPgt{Present: true, PGT: g.PGT.Clone()}
		r.mu.Lock()
		if checkBaseline {
			if base, ok := r.shared.Guests[c.Handle]; ok && base.Present &&
				!EqualMappings(base.PGT.Mapping, g.PGT.Mapping) {
				r.mu.Unlock()
				r.fail(Failure{Kind: FailNonInterference,
					Detail: fmt.Sprintf("guest %v stage 2 changed while unlocked", c.Handle)})
				r.mu.Lock()
			}
			if cur, ok := into.Guests[c.Handle]; ok && cur.Present {
				r.mu.Unlock()
				return snap
			}
		} else {
			r.shared.Guests[c.Handle] = &GuestPgt{Present: true, PGT: g.PGT.Clone()}
		}
		r.mu.Unlock()
		into.Guests[c.Handle] = &g
	}
	return snap
}

// checkSeparation verifies pairwise disjointness of all recorded
// page-table footprints, and that the host/hyp tables stay within the
// boot carve-out (§4.4 check 2). Footprints are sorted run lists, so
// each pairwise check is one linear merge, not a nested set iteration.
// It runs at every lock release, so footprints are named only once a
// violation needs reporting.
//
// Every violated pair is reported in one alarm: an earlier version kept
// only the last formatted detail, silently overwriting earlier pairs,
// which hid concurrent overlaps when three or more tables collided.
func (r *Recorder) checkSeparation() {
	sp := r.tracer.Begin(r.lane, spanGhostSeparation)
	defer sp.End()
	r.mu.Lock()
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
		r.fail(Failure{Kind: FailSeparation, Detail: strings.Join(details, "\n")})
	}
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
	r.fail(Failure{Kind: FailPanic, CPU: cpu, Call: rec.call, Detail: msg})
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

	l := AbstractLocal(r.hv, cpu)
	rec.post.Locals[cpu] = &l
	rec.post.Globals = rec.pre.Globals
	rec.call.Ret = int64(l.HostRegs[1])
	rec.call.GuestRegsExit = l.GuestRegs
	rec.call.exitLocals = &l

	r.mu.Lock()
	r.stats.Traps++
	r.mu.Unlock()

	if r.OnEvent != nil {
		r.OnEvent(TraceEvent{
			Pre:      rec.pre,
			Post:     rec.post,
			Call:     rec.call,
			Sessions: sessionRecords(rec.sessions),
		})
	}

	if !telemetry.Disabled() {
		ghostChecks.Inc()
		defer func(start time.Time) {
			ghostCheckLat.ObserveDuration(time.Since(start))
		}(time.Now())
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
			r.fail(Failure{Kind: FailSpecMismatch, CPU: cpu, Call: rec.call, Detail: detail})
			return
		}
		r.markPassed()
		return
	}

	// (7) compute the expected post-state from pre + call data.
	expected := NewState()
	ok := ComputePost(expected, rec.pre, &rec.call)

	r.mu.Lock()
	r.stats.Checks++
	r.mu.Unlock()

	if !ok {
		r.fail(Failure{Kind: FailSpecIncomplete, CPU: cpu, Call: rec.call,
			Detail: "no specification for this exception"})
		return
	}

	// (8) the ternary pre / recorded-post / computed-post comparison.
	if detail := CompareTernary(rec.pre, rec.post, expected, cpu); detail != "" {
		r.fail(Failure{Kind: FailSpecMismatch, CPU: cpu, Call: rec.call, Detail: detail})
		return
	}
	r.markPassed()
}

// markPassed bumps both the recorder's own stats and the telemetry
// counter for a clean oracle comparison.
func (r *Recorder) markPassed() {
	r.mu.Lock()
	r.stats.Passed++
	r.mu.Unlock()
	if !telemetry.Disabled() {
		ghostChecksPassed.Inc()
	}
}
