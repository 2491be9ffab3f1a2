package mem

import (
	"slices"
	"sync"

	"ghostspec/internal/arch"
)

// MemcacheCap is the maximum number of pages a single topup may
// donate, and the cap on a memcache's depth. The correct topup path
// rejects requests beyond it; the injectable size bug (§6 bug 2)
// bypasses the rejection via integer truncation.
const MemcacheCap = 128

// Memcache is a per-vCPU stack of donated frames, pKVM's
// kvm_hyp_memcache: the reserve the hypervisor draws on when it needs
// pages for a guest's stage 2 tables while running that vCPU. The
// host tops it up ahead of time; drawing from it never takes a lock
// because the memcache is owned by whoever owns the vCPU.
//
// It is nonetheless internally synchronised: the vcpu-load-race
// injectable bug (§6 bug 3) makes the *ownership handover* racy, and
// the container must not itself crash the simulation when that race
// is exercised.
type Memcache struct {
	mu    sync.Mutex
	pages []arch.PFN
}

// Push adds a donated frame to the reserve.
func (mc *Memcache) Push(pfn arch.PFN) {
	mc.mu.Lock()
	mc.pages = append(mc.pages, pfn)
	mc.mu.Unlock()
}

// Pop removes and returns the most recently donated frame. It returns
// false when the reserve is empty — the allocation-failure case the
// loose specification folds into -ENOMEM.
func (mc *Memcache) Pop() (arch.PFN, bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if len(mc.pages) == 0 {
		return 0, false
	}
	pfn := mc.pages[len(mc.pages)-1]
	mc.pages = mc.pages[:len(mc.pages)-1]
	return pfn, true
}

// Len returns the current reserve depth.
func (mc *Memcache) Len() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return len(mc.pages)
}

// Pages returns a copy of the current reserve contents, bottom first.
// The ghost abstraction of vCPU metadata records it.
func (mc *Memcache) Pages() []arch.PFN {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	out := make([]arch.PFN, len(mc.pages))
	copy(out, mc.pages)
	return out
}

// PagesEqual reports whether the reserve holds exactly pfns, bottom
// first: Pages compared in place, without the copy.
func (mc *Memcache) PagesEqual(pfns []arch.PFN) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return slices.Equal(mc.pages, pfns)
}

// Drain removes and returns all frames, emptying the reserve; used
// when a VM is torn down and its donated pages return to the host.
func (mc *Memcache) Drain() []arch.PFN {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	out := mc.pages
	mc.pages = nil
	return out
}

// SetPages replaces the memcache's contents with a copy of pages
// (bottom of the stack first, matching Pages). This is the
// snapshot-restore entry point: a restored vCPU gets its captured
// reserve back without replaying the push/pop history.
func (mc *Memcache) SetPages(pages []arch.PFN) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.pages = append(mc.pages[:0], pages...)
}
