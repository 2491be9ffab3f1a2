package mem

import (
	"math/rand"
	"slices"
	"testing"

	"ghostspec/internal/arch"
)

// refPool is the reference twin of Pool: the plain free-list-and-set
// allocator the watermark pool must be indistinguishable from. The
// free list starts descending, so frames go out bottom-up, and Free
// pushes onto its end.
type refPool struct {
	start arch.PFN
	free  []arch.PFN
	inUse map[arch.PFN]bool
}

type refSnapshot struct {
	free  []arch.PFN
	inUse []arch.PFN
}

func newRefPool(start arch.PFN, nr uint64) *refPool {
	p := &refPool{start: start, inUse: map[arch.PFN]bool{}}
	for i := nr; i > 0; i-- {
		p.free = append(p.free, start+arch.PFN(i-1))
	}
	return p
}

func (p *refPool) alloc() (arch.PFN, bool) {
	if len(p.free) == 0 {
		return 0, false
	}
	pfn := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[pfn] = true
	return pfn, true
}

func (p *refPool) release(pfn arch.PFN) {
	delete(p.inUse, pfn)
	p.free = append(p.free, pfn)
}

func (p *refPool) snapshot() refSnapshot {
	s := refSnapshot{free: slices.Clone(p.free)}
	for pfn := range p.inUse {
		s.inUse = append(s.inUse, pfn)
	}
	slices.Sort(s.inUse)
	return s
}

func (p *refPool) restore(s refSnapshot) {
	p.free = slices.Clone(s.free)
	clear(p.inUse)
	for _, pfn := range s.inUse {
		p.inUse[pfn] = true
	}
}

func (s refSnapshot) equal(o refSnapshot) bool {
	return slices.Equal(s.free, o.free) && slices.Equal(s.inUse, o.inUse)
}

// checkCanonical asserts the watermark representation is the unique
// one for its free list: the stack never continues the watermark's
// descending run, and the bitmap is exactly the frames below the
// watermark that are not on the stack.
func checkCanonical(t *testing.T, p *Pool) {
	t.Helper()
	if len(p.freed) > 0 && uint64(p.freed[0]-p.start) == p.next-1 {
		t.Fatalf("stack bottom %#x continues watermark %d", uint64(p.freed[0]), p.next)
	}
	onStack := map[arch.PFN]bool{}
	for _, pfn := range p.freed {
		onStack[pfn] = true
	}
	for i := uint64(0); i < uint64(len(p.inUse))*64; i++ {
		want := i < p.next && !onStack[p.start+arch.PFN(i)]
		if got := p.inUse[i/64]&(1<<(i%64)) != 0; got != want {
			t.Fatalf("bitmap bit %d = %v, want %v (next %d)", i, got, want, p.next)
		}
	}
}

// TestPoolMatchesReference drives the pool and its reference twin
// through the same random Alloc/Free/Snapshot/Restore sequences and
// requires identical hand-outs and agreement on every query.
func TestPoolMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := arch.PFN(rng.Intn(1 << 20))
		nr := uint64(1 + rng.Intn(150))
		p, ref := NewPool("twin", start, nr), newRefPool(start, nr)
		var snaps []PoolSnapshot
		var refSnaps []refSnapshot
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(100); {
			case r < 45:
				got, gok := p.Alloc()
				want, wok := ref.alloc()
				if got != want || gok != wok {
					t.Fatalf("seed %d step %d: Alloc = %#x,%v, reference %#x,%v", seed, step, uint64(got), gok, uint64(want), wok)
				}
			case r < 85:
				if len(ref.inUse) == 0 {
					continue
				}
				// Free a random in-use frame; descending runs that
				// meet the watermark are the interesting case, so
				// prefer the highest frame half the time.
				var live []arch.PFN
				for pfn := range ref.inUse {
					live = append(live, pfn)
				}
				slices.Sort(live)
				pfn := live[rng.Intn(len(live))]
				if rng.Intn(2) == 0 {
					pfn = live[len(live)-1]
				}
				p.Free(pfn)
				ref.release(pfn)
			case r < 93:
				snaps = append(snaps, p.Snapshot())
				refSnaps = append(refSnaps, ref.snapshot())
			default:
				if len(snaps) == 0 {
					continue
				}
				i := rng.Intn(len(snaps))
				p.Restore(snaps[i])
				ref.restore(refSnaps[i])
			}
			checkCanonical(t, p)
			if p.Available() != len(ref.free) || p.Allocated() != len(ref.inUse) {
				t.Fatalf("seed %d step %d: Available/Allocated = %d/%d, reference %d/%d",
					seed, step, p.Available(), p.Allocated(), len(ref.free), len(ref.inUse))
			}
			for pfn := start - 1; pfn <= start+arch.PFN(nr); pfn++ {
				if p.InUse(pfn) != ref.inUse[pfn] {
					t.Fatalf("seed %d step %d: InUse(%#x) = %v", seed, step, uint64(pfn), p.InUse(pfn))
				}
			}
		}
		snaps, refSnaps = append(snaps, p.Snapshot()), append(refSnaps, ref.snapshot())
		for i := range snaps {
			for j := range snaps {
				if snaps[i].Equal(snaps[j]) != refSnaps[i].equal(refSnaps[j]) {
					t.Fatalf("seed %d: Equal(%d, %d) = %v, reference %v", seed, i, j,
						snaps[i].Equal(snaps[j]), refSnaps[i].equal(refSnaps[j]))
				}
			}
		}
	}
}
