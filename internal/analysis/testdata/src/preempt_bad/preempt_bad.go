// Package preempt_bad is golden-file input for the preemptcheck
// analyzer: every line carrying a "want:preemptcheck" marker comment
// must be flagged, and no unmarked line may be — in particular a
// deferred bare release and a helper forwarding its point parameter
// stay clean. The go toolchain never builds this tree (testdata is
// invisible to it); only the analysis loader compiles it, with real
// types for spinlock.Lock and preempt.Point.
package preempt_bad

import (
	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/spinlock"
)

// fakeHV mirrors the hypervisor's lock field and helper names so the
// component table recognises them.
type fakeHV struct {
	vmsLock  *spinlock.Lock
	hostLock *spinlock.Lock
}

var (
	cleanLockVMs   = preempt.At(preempt.KindLockAcquire, "vms", "clean", 0)
	cleanUnlockVMs = preempt.At(preempt.KindLockRelease, "vms", "clean", 0)
	cleanLockHost  = preempt.At(preempt.KindLockAcquire, "host", "clean", 0)

	noPointUnlock = preempt.At(preempt.KindLockRelease, "vms", "noPoint", 0)

	twiceLock    = preempt.At(preempt.KindLockAcquire, "vms", "twice", 0)
	twiceUnlock  = preempt.At(preempt.KindLockRelease, "vms", "twice", 0)
	twiceUnlock1 = preempt.At(preempt.KindLockRelease, "vms", "twice", 1)

	hostNotVMs    = preempt.At(preempt.KindLockAcquire, "host", "mismatch", 0)
	acquireNotRel = preempt.At(preempt.KindLockAcquire, "vms", "mismatch", 0)

	relockLock   = preempt.At(preempt.KindLockAcquire, "vms", "relock", 0)
	relockUnlock = preempt.At(preempt.KindLockRelease, "vms", "relock", 0)
)

// lockVMs is a lock helper: it forwards its caller's point.
func (hv *fakeHV) lockVMs(cpu int, pt *preempt.Point) {
	hv.vmsLock.LockAt(pt)
}

// clean passes a point at every call; its deferred release passes
// none, which is allowed.
func clean(hv *fakeHV) {
	hv.vmsLock.LockAt(cleanLockVMs)
	hv.vmsLock.UnlockAt(cleanUnlockVMs)
	hv.hostLock.LockAt(cleanLockHost)
	defer hv.hostLock.Unlock()
}

// noPoint takes a lock without naming its point.
func noPoint(hv *fakeHV) {
	hv.vmsLock.Lock() // want:preemptcheck
	hv.vmsLock.UnlockAt(noPointUnlock)
}

// twice passes one point at two acquisitions.
func twice(hv *fakeHV) {
	hv.vmsLock.LockAt(twiceLock)
	hv.vmsLock.UnlockAt(twiceUnlock)
	hv.vmsLock.LockAt(twiceLock) // want:preemptcheck
	hv.vmsLock.UnlockAt(twiceUnlock1)
}

// mismatch passes points declared for another component and another
// kind.
func mismatch(hv *fakeHV) {
	hv.vmsLock.LockAt(hostNotVMs)      // want:preemptcheck
	hv.vmsLock.UnlockAt(acquireNotRel) // want:preemptcheck
}

// relock matches its points' declarations; so does the relock method
// in samename.go, which passes relockLock again (a name without its file
// fits both).
func (hv *fakeHV) relock() {
	hv.vmsLock.LockAt(relockLock)
	hv.vmsLock.UnlockAt(relockUnlock)
}
