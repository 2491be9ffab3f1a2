package spinlock

import "ghostspec/internal/analysis/preempt"

// Scheduler is the cooperative-scheduling protocol a deterministic
// multi-vCPU scheduler (internal/sched) implements alongside
// preempt.Scheduler. It reaches a lock through the lock's preemption
// domain (SetDomain): while a scheduler is bound to the domain of the
// lock's system, exactly one vCPU of that system runs at a time, so a
// vCPU that blocked on sync.Mutex while the holder sat parked would
// deadlock; instead a contended acquisition asks the scheduler to park
// the vCPU and hand the token elsewhere, then retries TryLock when
// re-granted. Locks of unbound systems block on the mutex as usual.
type Scheduler interface {
	// LockContended is called when an acquisition of l failed its
	// TryLock. Returning true means the running vCPU has been parked
	// and re-granted — retry TryLock. Returning false means the
	// scheduler is not (or no longer) serialising the system, and the
	// caller should fall back to a blocking acquisition.
	LockContended(l *Lock) bool
	// LockReleased is called after every Unlock of l while the
	// scheduler is bound, so vCPUs blocked on l can be made runnable
	// again.
	LockReleased(l *Lock)
}

// SetDomain attaches the lock to its system's preemption domain: its
// acquire and release points are reported there, and a bound scheduler
// that implements Scheduler takes over contended acquisitions. Like
// SetHooks, install once at boot; a lock with no domain is never
// scheduled.
func (l *Lock) SetDomain(d *preempt.Domain) { l.dom = d }

// coop returns the cooperative scheduler bound to the lock's domain,
// or nil.
func (l *Lock) coop() Scheduler {
	s, _ := l.dom.Bound().(Scheduler)
	return s
}

// lockContended acquires a lock whose TryLock just failed. Scheduled
// vCPUs park-and-retry through the cooperative protocol; everyone else
// blocks on the mutex exactly as before.
func (l *Lock) lockContended() {
	for {
		if s := l.coop(); s != nil && s.LockContended(l) {
			if l.mu.TryLock() {
				return
			}
			continue
		}
		l.mu.Lock()
		return
	}
}
