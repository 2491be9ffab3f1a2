// Package lockcheck_bad is golden-file input for the lockcheck
// analyzer: every line carrying a "want:lockcheck" marker comment must
// be flagged, and no unmarked line may be. The go toolchain never
// builds this tree (testdata is invisible to it); only the analysis
// loader compiles it, with real types for spinlock.Lock.
package lockcheck_bad

import "ghostspec/internal/spinlock"

// fakeHV mirrors the hypervisor's lock field names so the component
// table recognises the receivers.
type fakeHV struct {
	vmsLock  *spinlock.Lock
	hostLock *spinlock.Lock
	hypLock  *spinlock.Lock
}

// leak never unlocks; flagged at function end.
func leak(hv *fakeHV) {
	hv.hostLock.Lock()
} // want:lockcheck

// leakAtReturn misses the unlock on the early-out path only.
func leakAtReturn(hv *fakeHV, cond bool) {
	hv.hostLock.Lock()
	if cond {
		return // want:lockcheck
	}
	hv.hostLock.Unlock()
}

// inversion acquires against the declared rank order (host rank 3
// held, vms rank 1 wanted).
func inversion(hv *fakeHV) {
	hv.hostLock.Lock()
	defer hv.hostLock.Unlock()
	hv.vmsLock.Lock() // want:lockcheck
	defer hv.vmsLock.Unlock()
}

// doubleAcquire reacquires a lock already held on this path.
func doubleAcquire(hv *fakeHV) {
	hv.vmsLock.Lock()
	hv.vmsLock.Lock() // want:lockcheck
	hv.vmsLock.Unlock()
}

// unlockNotHeld releases a lock this path never took.
func unlockNotHeld(hv *fakeHV) {
	hv.hypLock.Unlock() // want:lockcheck
}

// needsHost demands the host lock from its callers.
//
//ghost:requires lock=host
func needsHost(hv *fakeHV) {}

// callsWithoutHost violates the annotation.
func callsWithoutHost(hv *fakeHV) {
	needsHost(hv) // want:lockcheck
}

// callsWithHost is the legal counterpart; nothing is flagged.
func callsWithHost(hv *fakeHV) {
	hv.hostLock.Lock()
	defer hv.hostLock.Unlock()
	needsHost(hv)
}

// divergent leaves different locks held on the two branches; the
// merge point is the finding.
func divergent(hv *fakeHV, cond bool) {
	if cond { // want:lockcheck
		hv.hostLock.Lock()
	} else {
		hv.hostLock.Lock()
		hv.hostLock.Unlock()
	}
}

// unbalancedLoop accumulates a lock per iteration.
func unbalancedLoop(hv *fakeHV, n int) {
	for i := 0; i < n; i++ { // want:lockcheck
		hv.vmsLock.Lock()
	}
}

// balanced is clean: ascending ranks, everything deferred.
func balanced(hv *fakeHV) {
	hv.vmsLock.Lock()
	defer hv.vmsLock.Unlock()
	hv.hostLock.Lock()
	defer hv.hostLock.Unlock()
	hv.hypLock.Lock()
	defer hv.hypLock.Unlock()
}

// selectLeak takes a lock in one select clause only, so the clauses
// meet holding different sets.
func selectLeak(hv *fakeHV, ch chan int) {
	select { // want:lockcheck
	case <-ch:
		hv.hostLock.Lock()
	default:
	}
}

// selectBalanced takes the lock in every clause: a select always runs
// exactly one of them, so the lock is held after it on every path.
func selectBalanced(hv *fakeHV, a, b chan int) {
	select {
	case <-a:
		hv.hostLock.Lock()
	case <-b:
		hv.hostLock.Lock()
	}
	hv.hostLock.Unlock()
}
