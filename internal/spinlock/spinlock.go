// Package spinlock provides the hypervisor's spinlocks, with the
// instrumentation hooks the ghost specification attaches to.
//
// pKVM protects each page table and the VM-metadata table with its own
// lock; the ghost machinery records the abstraction of the protected
// component exactly when its lock is taken and just before it is
// released (paper §3.2). The hooks here are those attachment points:
// they run while the lock is held, so the recorded abstraction is of
// owned state.
package spinlock

import (
	"sync"
	"time"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// Contention wait-time histograms, one per lock rank (0 = unranked).
// Bucketed per rank rather than per component so the label space stays
// fixed while still separating "waiting on the VM table" from "waiting
// on a guest stage 2" — the rank is what the acquisition order is
// about.
var lockWaitByRank = [5]*telemetry.Histogram{
	telemetry.NewHistogram(`spinlock_wait_ns{rank="0"}`),
	telemetry.NewHistogram(`spinlock_wait_ns{rank="1"}`),
	telemetry.NewHistogram(`spinlock_wait_ns{rank="2"}`),
	telemetry.NewHistogram(`spinlock_wait_ns{rank="3"}`),
	telemetry.NewHistogram(`spinlock_wait_ns{rank="4"}`),
}

// SlowAcquireThreshold is the contention wait above which a lock
// acquisition emits a span (when a tracer is attached): long waits are
// the ones worth seeing on the timeline next to the execution phases.
const SlowAcquireThreshold = 50 * time.Microsecond

// waitHist returns the rank's wait histogram, clamping unknown ranks
// to the unranked bucket.
func waitHist(rank int) *telemetry.Histogram {
	if rank < 0 || rank >= len(lockWaitByRank) {
		rank = 0
	}
	return lockWaitByRank[rank]
}

// Hooks are callbacks invoked while the lock is held: Acquired runs
// immediately after the lock is taken, Releasing immediately before it
// is dropped. Nil hooks are skipped. The component argument is the
// lock's registered name.
type Hooks struct {
	Acquired  func(component string)
	Releasing func(component string)
}

// Lock is a hypervisor spinlock. The zero value is usable but
// uninstrumented; use New to name the component for the hooks.
type Lock struct {
	mu        sync.Mutex
	component string
	hooks     *Hooks

	// held tracks lock state for sanity checking; it is only written
	// under mu.
	//ghost:guards lock=self
	held bool

	// rank orders this lock in the global acquisition order checked by
	// the runtime rank validator (rank.go); 0 means unranked.
	rank int

	// tracer, when attached, receives a slow-acquisition span on lane
	// whenever a contended acquisition waits past SlowAcquireThreshold.
	// Set once at boot (SetTracer), like the hooks.
	tracer   *trace.Tracer
	lane     int
	waitSpan trace.Name

	// dom is the owning system's preemption domain; see SetDomain.
	dom *preempt.Domain
}

// New returns a named lock with the given hooks (which may be nil).
func New(component string, hooks *Hooks) *Lock {
	return &Lock{
		component: component,
		hooks:     hooks,
		waitSpan:  trace.NewName("lock.wait:" + component),
	}
}

// NewRanked returns a named lock that participates in rank-order
// validation: while EnableRankCheck is active, acquiring it with any
// lock of equal or higher rank already held panics.
func NewRanked(component string, rank int, hooks *Hooks) *Lock {
	l := New(component, hooks)
	l.rank = rank
	return l
}

// Rank returns the lock's declared rank (0 if unranked).
func (l *Lock) Rank() int { return l.rank }

// name returns the component name, or a placeholder for zero-value
// locks, for panic messages.
func (l *Lock) name() string {
	if l.component == "" {
		return "(unnamed)"
	}
	return l.component
}

// SetHooks installs hooks on an existing lock. It must not be called
// concurrently with Lock/Unlock; the hypervisor installs hooks once at
// initialisation, before any hypercall traffic.
func (l *Lock) SetHooks(h *Hooks) { l.hooks = h }

// SetTracer attaches a span tracer for slow-acquisition emission. The
// lane is the owning system's lane; contention spans are emitted
// parentless (the waiter's goroutine owns no lane stack position).
// Like SetHooks, install once at boot.
func (l *Lock) SetTracer(t *trace.Tracer, lane int) {
	l.tracer, l.lane = t, lane
}

// Component returns the lock's registered name.
func (l *Lock) Component() string { return l.component }

// Lock acquires the lock and runs the Acquired hook while holding it,
// crossing no preemption point: for calls that name none.
func (l *Lock) Lock() { l.lock(nil) }

// LockAt is Lock at the acquire point p, the caller's point declared
// with preempt.At: before acquiring it crosses p, so a
// deterministic scheduler can park the vCPU on the threshold of the
// critical section.
func (l *Lock) LockAt(p *preempt.Point) { l.lock(p) }

func (l *Lock) lock(p *preempt.Point) {
	if rankCheckOn.Load() {
		// Validate before blocking on mu: a rank inversion must panic
		// at the guilty acquisition, not deadlock against the thread
		// holding the locks in the other order.
		noteAcquire(l)
	}
	l.dom.Fire(p)
	if !l.mu.TryLock() {
		// A zero-value (unnamed) lock stays uninstrumented.
		if l.component == "" || telemetry.Disabled() {
			l.lockContended()
		} else {
			start := time.Now()
			l.lockContended()
			wait := time.Since(start)
			waitHist(l.rank).ObserveDuration(wait)
			if wait >= SlowAcquireThreshold {
				l.tracer.Emit(l.lane, l.waitSpan, start, wait)
			}
		}
	}
	l.held = true
	if l.hooks != nil && l.hooks.Acquired != nil {
		l.hooks.Acquired(l.component)
	}
}

// Unlock runs the Releasing hook and drops the lock, crossing no
// preemption point: for calls that name none and for deferred
// releases. Unlocking a lock that is not held (double
// unlock) panics with the component name.
func (l *Lock) Unlock() { l.unlock(nil) }

// UnlockAt is Unlock at the release point p. The crossing happens
// while the lock is still held and before the Releasing hook: a
// scheduler parking the vCPU there holds the whole system in the
// release window — other vCPUs observe the component locked with its
// mutation complete but the oracle's release-time checks not yet run
// — which is exactly the interleaving the lock-window litmuses probe.
func (l *Lock) UnlockAt(p *preempt.Point) { l.unlock(p) }

func (l *Lock) unlock(p *preempt.Point) {
	if !l.held {
		panic("spinlock: unlock of unheld lock " + l.name())
	}
	if rankCheckOn.Load() {
		noteRelease(l)
	}
	l.dom.Fire(p)
	if l.hooks != nil && l.hooks.Releasing != nil {
		l.hooks.Releasing(l.component)
	}
	l.held = false
	l.mu.Unlock()
	if s := l.coop(); s != nil {
		s.LockReleased(l)
	}
}

// Held reports whether the lock is currently held. It is advisory
// (racy by nature) and intended for assertions on the owning thread.
func (l *Lock) Held() bool { return l.held }
