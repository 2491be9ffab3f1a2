// Package guardcheck_bad is golden-file input for the guardcheck
// analyzer: every line carrying a "want:guardcheck" marker comment
// must be flagged, and no unmarked line may be. The helper pair also
// carries "want:lockcheck" markers — their deliberately unbalanced
// bodies are what gives them lock-effect summaries, and lockcheck
// (correctly) objects to each half in isolation.
package guardcheck_bad

import "ghostspec/internal/spinlock"

// fakeHV mirrors the hypervisor's lock field names so the component
// table recognises the receivers.
type fakeHV struct {
	vmsLock  *spinlock.Lock
	hostLock *spinlock.Lock

	//ghost:guards lock=vms
	vms [4]int

	// table stands in for pgtable state owned by a varying component.
	//ghost:guards lock=owner
	table int

	// cache is private to fakeHV's own methods.
	//ghost:guards lock=self
	cache int
}

// readNoLock reads the vms-guarded field with nothing held.
func readNoLock(hv *fakeHV) int {
	return hv.vms[0] // want:guardcheck
}

// readUnderLock is the legal direct shape.
func readUnderLock(hv *fakeHV) int {
	hv.vmsLock.Lock()
	defer hv.vmsLock.Unlock()
	return hv.vms[1]
}

// lockVMTable leaves the lock held for its caller: the universe
// summarizes it as net-acquires vms. Lockcheck's per-function pairing
// rule flags the leak, as it must.
func lockVMTable(hv *fakeHV) {
	hv.vmsLock.Lock()
} // want:lockcheck

// unlockVMTable releases on the caller's behalf (net-releases vms).
func unlockVMTable(hv *fakeHV) {
	hv.vmsLock.Unlock() // want:lockcheck
}

// readViaHelpers exercises the interprocedural summaries: the lock
// arrives through the wrapper, not a direct call, and the guarded
// access between the two helper calls is legal.
func readViaHelpers(hv *fakeHV) int {
	lockVMTable(hv)
	n := hv.vms[2]
	unlockVMTable(hv)
	return n
}

// readAfterHelperRelease reads after the summarized release: the vms
// lock is gone again.
func readAfterHelperRelease(hv *fakeHV) int {
	lockVMTable(hv)
	unlockVMTable(hv)
	return hv.vms[3] // want:guardcheck
}

// ownerNoLock touches owner-guarded state with no discipline lock.
func ownerNoLock(hv *fakeHV) int {
	return hv.table // want:guardcheck
}

// ownerAnyLock: any ranked discipline lock satisfies lock=owner.
func ownerAnyLock(hv *fakeHV) int {
	hv.hostLock.Lock()
	defer hv.hostLock.Unlock()
	return hv.table
}

// typeSwitchGuard reads owner-guarded state in a type switch's guard
// statement, which is evaluated before any clause.
func typeSwitchGuard(hv *fakeHV) int {
	switch v := any(hv.table).(type) { // want:guardcheck
	case int:
		return v
	}
	return 0
}

// rangeKeyStore stores to owner-guarded state as a range loop's key.
func rangeKeyStore(hv *fakeHV, xs []int) {
	for hv.table = range xs { // want:guardcheck
	}
}

// peek is a method of the declaring type: lock=self is satisfied.
func (hv *fakeHV) peek() int { return hv.cache }

// peekOutside reads the self-guarded field from a free function.
func peekOutside(hv *fakeHV) int {
	return hv.cache // want:guardcheck
}

// newFakeHV is constructor scope: initializing guarded fields of a
// value nothing else can see yet is exempt, both as composite-literal
// keys and as ordinary stores.
func newFakeHV() *fakeHV {
	hv := &fakeHV{cache: 1}
	hv.vms[0] = 7
	return hv
}

// badAnnot's field annotation names an unknown lock; the universe
// reports it so a typo cannot silently guard nothing.
type badAnnot struct {
	//ghost:guards lock=bogus
	x int // want:guardcheck
}
