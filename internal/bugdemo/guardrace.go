package bugdemo

import (
	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/hyp"
)

var guardedRaceReadLockVMs = preempt.At(preempt.KindLockAcquire, "vms", "GuardedRaceRead", 0)

// reclaimShadow models a shared component the way the hypervisor
// declares its own: a field annotated //ghost:guards with the
// component lock that owns it. It exists only to carry the seeded
// guardcheck violation below.
type reclaimShadow struct {
	// pending mirrors the hypervisor's reclaimable set; like it, the
	// field belongs to the VM-table lock.
	//ghost:guards lock=vms
	pending int
}

// GuardedRaceRead is a deliberately seeded violation of the
// //ghost:guards discipline documented in docs/ANALYSIS.md: it reads
// a vms-guarded field before taking the VM-table lock. It is the
// guardcheck twin of LockOrderInversion — a permanent regression demo
// proving the static race detector still fires:
//
//   - ghostlint's guardcheck flags the first read (no vms lock held
//     on that path); the suppression below hides it in normal runs,
//     and `ghostlint -strict ./internal/bugdemo` (run in CI) proves
//     the analyzer still sees it.
//   - the second read is the legal counterpart: the same field, same
//     function, but under the lock — guardcheck accepts it, showing
//     the check is path-sensitive rather than syntactic.
//
// It must never be called from real hypercall or oracle code.
func GuardedRaceRead(hv *hyp.Hypervisor, s *reclaimShadow) int {
	racy := s.pending //ghostlint:ignore guardcheck deliberately seeded guarded-field race (vms-guarded read with no lock), kept as the guardcheck regression demo
	hv.VMTableLock().LockAt(guardedRaceReadLockVMs)
	defer hv.VMTableLock().Unlock()
	return racy + s.pending
}
