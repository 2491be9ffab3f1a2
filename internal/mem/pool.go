// Package mem provides the physical-page allocators of the simulated
// stack: the host's page pool (what the hyp-proxy hands to tests), the
// hypervisor's internal page allocator (fed by pages the host donates
// at initialisation), and the per-vCPU memcache whose topup path is
// where two of the paper's five real pKVM bugs live.
package mem

import (
	"fmt"
	"sort"
	"sync"

	"ghostspec/internal/arch"
)

// Pool is a simple free-list allocator over a contiguous range of
// physical frames. It backs both the host's allocatable memory and
// the hypervisor's donated carve-out.
type Pool struct {
	mu    sync.Mutex
	name  string
	start arch.PFN
	count uint64
	free  []arch.PFN
	inUse map[arch.PFN]bool
}

// NewPool creates a pool over nr frames starting at start.
func NewPool(name string, start arch.PFN, nr uint64) *Pool {
	p := &Pool{
		name:  name,
		start: start,
		count: nr,
		free:  make([]arch.PFN, 0, nr),
		inUse: make(map[arch.PFN]bool, nr),
	}
	// Push in reverse so allocation proceeds from the bottom up,
	// which keeps test addresses readable.
	for i := nr; i > 0; i-- {
		p.free = append(p.free, start+arch.PFN(i-1))
	}
	return p
}

// Alloc takes one frame from the pool. It returns false when the pool
// is exhausted — the loose -ENOMEM case of the specification.
func (p *Pool) Alloc() (arch.PFN, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return 0, false
	}
	pfn := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[pfn] = true
	return pfn, true
}

// Free returns a frame to the pool. Freeing a frame the pool does not
// own, or double-freeing, panics: these are internal-consistency
// errors of the caller.
func (p *Pool) Free(pfn arch.PFN) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.contains(pfn) {
		panic(fmt.Sprintf("mem: pool %s freeing foreign frame %#x", p.name, uint64(pfn)))
	}
	if !p.inUse[pfn] {
		panic(fmt.Sprintf("mem: pool %s double free of frame %#x", p.name, uint64(pfn)))
	}
	delete(p.inUse, pfn)
	p.free = append(p.free, pfn)
}

func (p *Pool) contains(pfn arch.PFN) bool {
	return pfn >= p.start && uint64(pfn-p.start) < p.count
}

// Contains reports whether pfn lies in the pool's frame range,
// allocated or not.
func (p *Pool) Contains(pfn arch.PFN) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.contains(pfn)
}

// InUse reports whether pfn is a frame of this pool currently handed
// out.
func (p *Pool) InUse(pfn arch.PFN) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse[pfn]
}

// Available returns the number of free frames.
func (p *Pool) Available() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Allocated returns the number of frames currently handed out.
func (p *Pool) Allocated() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inUse)
}

// Range returns the pool's frame range as [start, start+count).
func (p *Pool) Range() (arch.PFN, uint64) { return p.start, p.count }

// PoolSnapshot is a value copy of a pool's allocation state: the exact
// free-list order (allocation replay must hand out the same PFNs in
// the same sequence) and the allocated set. Pure data — portable
// across identically shaped pools on different workers.
type PoolSnapshot struct {
	Free  []arch.PFN
	InUse []arch.PFN
}

// Snapshot captures the pool's current allocation state.
func (p *Pool) Snapshot() PoolSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolSnapshot{Free: append([]arch.PFN(nil), p.free...)}
	s.InUse = make([]arch.PFN, 0, len(p.inUse))
	for pfn := range p.inUse {
		s.InUse = append(s.InUse, pfn)
	}
	sort.Slice(s.InUse, func(i, j int) bool { return s.InUse[i] < s.InUse[j] })
	return s
}

// Restore rewinds the pool to a previously captured state. The
// snapshot must come from a pool with the same range; PFN membership
// is not re-validated beyond that.
func (p *Pool) Restore(s PoolSnapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free[:0], s.Free...)
	clear(p.inUse)
	for _, pfn := range s.InUse {
		p.inUse[pfn] = true
	}
}

// Equal reports whether two snapshots describe the same allocation
// state, including free-list order.
func (s PoolSnapshot) Equal(o PoolSnapshot) bool {
	if len(s.Free) != len(o.Free) || len(s.InUse) != len(o.InUse) {
		return false
	}
	for i := range s.Free {
		if s.Free[i] != o.Free[i] {
			return false
		}
	}
	for i := range s.InUse {
		if s.InUse[i] != o.InUse[i] {
			return false
		}
	}
	return true
}
