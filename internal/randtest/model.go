// Package randtest is the random tester of paper §5: arbitrary
// hypercall generation guided by "a careful abstraction of the
// specification's (already abstract) ghost state" — a pool of
// allocated host memory, the subset donated to the hypervisor, the
// VMs with their handles, the vCPUs, and the memcache pages. The model
// steers sampling toward known-valid values where progress needs them,
// and rejects steps it predicts would crash the host kernel (while
// hypervisor crashes remain fair game and are exactly what we hunt).
//
// An unguided mode draws arguments uniformly instead, for the ablation
// the paper's design discussion motivates: without the model, random
// calls rarely progress through the VM state machine and frequently
// "crash" the host.
package randtest

import (
	"slices"
	"sort"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
)

// pageState is the model's view of one allocated test page — the
// "very abstract model" inside the generator.
type pageState uint8

const (
	pageHostOwned pageState = iota
	pageSharedHyp
	pageDonatedHyp
	pageGuestOwned
	pageMemcache
	pageReclaimable
	nPageStates
)

// vcpuModel tracks one vCPU's lifecycle position.
type vcpuModel struct {
	initialized bool
	loadedOn    int // physical CPU or -1
	topups      int // pages donated to its memcache (approximate)
}

// vmModel tracks one VM.
type vmModel struct {
	handle hyp.Handle
	vcpus  []*vcpuModel
	// mapped is the set of guest frame numbers already mapped.
	mapped map[uint64]arch.PFN
	// shared are guest pages currently shared back to the host.
	shared map[uint64]arch.PFN
}

// model is the generator's abstraction of the system state.
type model struct {
	// pages is every page's state; it is written only through setPage,
	// which keeps byState in step.
	pages map[arch.PFN]pageState
	// byState lists the pages in each state, ascending.
	byState [nPageStates][]arch.PFN
	vms     map[hyp.Handle]*vmModel
	// loadedVM[cpu] is the VM handle loaded on each physical CPU
	// (0 = none).
	loadedVM   []hyp.Handle
	loadedVCPU []int
	// reclaim is the set of frames the model believes reclaimable.
	reclaim map[arch.PFN]bool
}

func newModel(nrCPUs int) *model {
	m := &model{
		pages:      make(map[arch.PFN]pageState),
		vms:        make(map[hyp.Handle]*vmModel),
		loadedVM:   make([]hyp.Handle, nrCPUs),
		loadedVCPU: make([]int, nrCPUs),
		reclaim:    make(map[arch.PFN]bool),
	}
	for i := range m.loadedVCPU {
		m.loadedVCPU[i] = -1
	}
	return m
}

// setPage records pfn's new state, moving it between the per-state
// lists.
func (m *model) setPage(pfn arch.PFN, st pageState) {
	if old, known := m.pages[pfn]; known {
		if old == st {
			return
		}
		l := m.byState[old]
		i, _ := slices.BinarySearch(l, pfn)
		m.byState[old] = slices.Delete(l, i, i+1)
	}
	m.pages[pfn] = st
	l := m.byState[st]
	i, _ := slices.BinarySearch(l, pfn)
	m.byState[st] = slices.Insert(l, i, pfn)
}

// pagesIn returns the model's pages currently in the given state, in
// ascending order — determinism of the generator under a fixed seed
// requires stable iteration everywhere. The slice is the model's own:
// the caller reads it before the next setPage and never modifies it.
func (m *model) pagesIn(st pageState) []arch.PFN { return m.byState[st] }

// anyVM returns the handles of live VMs, ascending.
func (m *model) anyVM() []hyp.Handle {
	out := make([]hyp.Handle, 0, len(m.vms))
	for h := range m.vms {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedKeys returns a gfn map's keys in ascending order.
func sortedKeys(m map[uint64]arch.PFN) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// minReclaim returns the smallest reclaimable frame, deterministically.
func (m *model) minReclaim() (arch.PFN, bool) {
	found := false
	var best arch.PFN
	for p := range m.reclaim {
		if !found || p < best {
			best, found = p, true
		}
	}
	return best, found
}

// freeCPU returns a CPU with nothing loaded, or -1.
func (m *model) freeCPU() int {
	for cpu, h := range m.loadedVM {
		if h == 0 {
			return cpu
		}
	}
	return -1
}

// loadedCPUs returns CPUs with a vCPU loaded.
func (m *model) loadedCPUs() []int {
	var out []int
	for cpu, h := range m.loadedVM {
		if h != 0 {
			out = append(out, cpu)
		}
	}
	return out
}

// wouldCrashHost is the crash predictor: a host access to memory the
// host no longer owns takes an unrecoverable fault in the real setup
// (it would panic the test kernel), so the guided generator refuses to
// generate it.
func (m *model) wouldCrashHost(pfn arch.PFN) bool {
	st, known := m.pages[pfn]
	if !known {
		return false // untracked memory is plain host memory
	}
	switch st {
	case pageHostOwned, pageSharedHyp:
		return false
	default:
		return true
	}
}
