package bugdemo

import (
	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/hyp"
)

var (
	lockOrderInversionLockGuest = preempt.At(preempt.KindLockAcquire, "guest", "LockOrderInversion", 0)
	lockOrderInversionLockVMs   = preempt.At(preempt.KindLockAcquire, "vms", "LockOrderInversion", 0)
)

// LockOrderInversion is a deliberately seeded violation of the lock
// discipline documented in docs/ANALYSIS.md: it acquires a guest
// stage 2 lock (rank 2) and then the VM-table lock (rank 1), the
// reverse of the order every real hypercall path uses. It exists as a
// permanent regression demo for both halves of the lock-discipline
// tooling:
//
//   - ghostlint's lockcheck flags the second acquisition as a rank
//     inversion; the suppression below hides it in normal runs, and
//     `ghostlint -strict ./internal/bugdemo` (run in CI) proves the
//     analyzer still sees it.
//   - the runtime rank validator (spinlock.EnableRankCheck) panics at
//     the same acquisition; lockorder_test.go asserts the panic.
//
// It must never be called from real hypercall or oracle code.
func LockOrderInversion(hv *hyp.Hypervisor, vm *hyp.VM) {
	vm.Lock.LockAt(lockOrderInversionLockGuest)
	defer vm.Lock.Unlock()
	hv.VMTableLock().LockAt(lockOrderInversionLockVMs) //ghostlint:ignore lockcheck deliberately seeded rank inversion (guest before vms), kept as the ghostlint and rank-validator regression demo
	defer hv.VMTableLock().Unlock()
	// A legal use while (incorrectly ordered but) held: the vms lock
	// does protect the snapshot read itself.
	_ = hv.VMSnapshot(0)
}
