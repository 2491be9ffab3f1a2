package preempt_bad

import "ghostspec/internal/spinlock"

// other has a method named like fakeHV's.
type other struct {
	vmsLock *spinlock.Lock
}

// relock passes a point another file's relock already passes.
func (o *other) relock() {
	o.vmsLock.LockAt(relockLock) // want:preemptcheck
	defer o.vmsLock.Unlock()
}
