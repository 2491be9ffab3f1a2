// Package mem provides the physical-page allocators of the simulated
// stack: the host's page pool (what the hyp-proxy hands to tests), the
// hypervisor's internal page allocator (fed by pages the host donates
// at initialisation), and the per-vCPU memcache whose topup path is
// where two of the paper's five real pKVM bugs live.
package mem

import (
	"fmt"
	"slices"
	"sync"

	"ghostspec/internal/arch"
)

// Pool is a LIFO free-list allocator over a contiguous range of
// physical frames. It backs both the host's allocatable memory and the
// hypervisor's donated carve-out.
//
// Frames go out bottom-up, most recently freed first. The free list is
// kept as a watermark plus a stack: frames at or above the watermark
// were never handed out (or were returned in the reverse of their
// hand-out order), and the stack holds the other freed frames. With an
// in-use bitmap every operation, snapshot and restore costs what is
// live rather than the size of the range.
type Pool struct {
	mu    sync.Mutex
	name  string
	start arch.PFN
	count uint64
	// next is the watermark: start+next .. start+count-1 are free and
	// go out in ascending order once the stack is empty. The
	// representation is canonical: freeing start+next-1 while the
	// stack is empty lowers the watermark instead of pushing.
	next  uint64
	freed []arch.PFN // stack of the other free frames, top last
	inUse []uint64   // bit i set iff start+i is handed out
}

// NewPool creates a pool over nr frames starting at start.
func NewPool(name string, start arch.PFN, nr uint64) *Pool {
	return &Pool{name: name, start: start, count: nr, inUse: make([]uint64, (nr+63)/64)}
}

func (p *Pool) bit(pfn arch.PFN) (*uint64, uint64) {
	i := uint64(pfn - p.start)
	return &p.inUse[i/64], 1 << (i % 64)
}

// Alloc takes one frame from the pool. It returns false when the pool
// is exhausted — the loose -ENOMEM case of the specification.
func (p *Pool) Alloc() (arch.PFN, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var pfn arch.PFN
	switch {
	case len(p.freed) > 0:
		pfn = p.freed[len(p.freed)-1]
		p.freed = p.freed[:len(p.freed)-1]
	case p.next < p.count:
		pfn = p.start + arch.PFN(p.next)
		p.next++
	default:
		return 0, false
	}
	w, b := p.bit(pfn)
	*w |= b
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
	w, b := p.bit(pfn)
	if *w&b == 0 {
		panic(fmt.Sprintf("mem: pool %s double free of frame %#x", p.name, uint64(pfn)))
	}
	*w &^= b
	if len(p.freed) == 0 && uint64(pfn-p.start) == p.next-1 {
		p.next--
		return
	}
	p.freed = append(p.freed, pfn)
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
	if !p.contains(pfn) {
		return false
	}
	w, b := p.bit(pfn)
	return *w&b != 0
}

// Available returns the number of free frames.
func (p *Pool) Available() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.count-p.next) + len(p.freed)
}

// Allocated returns the number of frames currently handed out.
func (p *Pool) Allocated() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.next) - len(p.freed)
}

// Range returns the pool's frame range as [start, start+count).
func (p *Pool) Range() (arch.PFN, uint64) { return p.start, p.count }

// PoolSnapshot is a value copy of a pool's allocation state: the exact
// free-list order (allocation replay must hand out the same PFNs in
// the same sequence), which also fixes the allocated set. Pure data —
// portable across identically shaped pools on different workers.
type PoolSnapshot struct {
	next  uint64
	freed []arch.PFN
}

// Snapshot captures the pool's current allocation state.
func (p *Pool) Snapshot() PoolSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolSnapshot{next: p.next, freed: slices.Clone(p.freed)}
}

// Restore rewinds the pool to a previously captured state. The
// snapshot must come from a pool with the same range; PFN membership
// is not re-validated beyond that.
func (p *Pool) Restore(s PoolSnapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.next = s.next
	p.freed = append(p.freed[:0], s.freed...)
	full := s.next / 64
	for i := range p.inUse {
		switch {
		case uint64(i) < full:
			p.inUse[i] = ^uint64(0)
		case uint64(i) == full:
			p.inUse[i] = 1<<(s.next%64) - 1
		default:
			p.inUse[i] = 0
		}
	}
	for _, pfn := range s.freed {
		w, b := p.bit(pfn)
		*w &^= b
	}
}

// Equal reports whether two snapshots describe the same allocation
// state, including free-list order.
func (s PoolSnapshot) Equal(o PoolSnapshot) bool {
	return s.next == o.next && slices.Equal(s.freed, o.freed)
}
