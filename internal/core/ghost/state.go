package ghost

import (
	"maps"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
)

// AbstractPgtable is the abstraction of one page table: its
// extensional mapping plus the memory footprint of the table pages
// themselves, which the separation invariant checks (paper §3.1, §4.4).
// The footprint is deliberately excluded from specification equality —
// which frames back the tree is an implementation detail.
type AbstractPgtable struct {
	Mapping   Mapping
	Footprint PageSet
}

// Clone returns an independent copy (the mapping copy-on-write, see
// Mapping.Clone).
func (a *AbstractPgtable) Clone() AbstractPgtable {
	return AbstractPgtable{Mapping: a.Mapping.Clone(), Footprint: a.Footprint.Clone()}
}

// Pkvm is the ghost of the hypervisor's own stage 1 (the paper's
// ghost_pkvm): present iff the pkvm lock was held during the recorded
// window.
type Pkvm struct {
	Present bool
	PGT     AbstractPgtable
}

// Host is the ghost of the host stage 2 (the paper's ghost_host). It
// is deliberately not a plain abstraction of the current host mapping
// (paper §3.1): mapping-on-demand makes the set of plainly-owned
// mapped pages nondeterministic, so the state records only the two
// deterministic components —
//
//   - Annot: pages annotated as owned by the hypervisor or a guest
//     (what the host must NOT be able to map), and
//   - Shared: pages the host has shared out or borrowed (what MUST be
//     mapped, with exact attributes).
//
// Everything else the host may or may not have faulted in; the
// abstraction function checks such incidental mappings are legal
// rather than recording them.
type Host struct {
	Present bool
	Annot   Mapping
	Shared  Mapping
}

// VCPUInfo is the ghost of one vCPU's metadata. While the vCPU is
// loaded on a physical CPU, ownership of its mutable state has
// transferred to that CPU (paper §3.1): the VM-table component then
// records MC as nil, and the live memcache appears in that CPU's
// locals instead.
type VCPUInfo struct {
	Initialized bool
	LoadedOn    int // physical CPU, or -1
	Regs        arch.Regs
	// MC is the memcache contents (donated frames, bottom first);
	// nil while the vCPU is loaded.
	MC []arch.PFN
}

// Equal reports structural equality.
func (v VCPUInfo) Equal(o VCPUInfo) bool {
	if v.Initialized != o.Initialized || v.LoadedOn != o.LoadedOn || v.Regs != o.Regs ||
		len(v.MC) != len(o.MC) {
		return false
	}
	for i := range v.MC {
		if v.MC[i] != o.MC[i] {
			return false
		}
	}
	return true
}

// VMInfo is the ghost of one VM's metadata (protected by the VM-table
// lock). The VM's stage 2 abstraction lives separately in
// State.Guests, because it is protected by its own lock.
//
// A recorded VMInfo is immutable: while a VM's metadata reads back
// unchanged, the recorder hands the same pointer to every pre- and
// post-state and to the shared copy. Code that derives a new VMInfo
// (the specification functions) clones it first, via
// State.writableVM.
type VMInfo struct {
	Handle  hyp.Handle
	NrVCPUs int
	VCPUs   []VCPUInfo
	// Donated are the metadata-backing frames still attached to the
	// VM (reclaimed after teardown).
	Donated []arch.PFN
}

// Clone returns an independent copy.
func (v *VMInfo) Clone() *VMInfo {
	out := &VMInfo{Handle: v.Handle, NrVCPUs: v.NrVCPUs}
	out.VCPUs = make([]VCPUInfo, len(v.VCPUs))
	for i, vc := range v.VCPUs {
		vc.MC = append([]arch.PFN(nil), vc.MC...)
		out.VCPUs[i] = vc
	}
	out.Donated = append([]arch.PFN(nil), v.Donated...)
	return out
}

// Equal reports structural equality.
func (v *VMInfo) Equal(o *VMInfo) bool {
	if v == o {
		return true
	}
	if v.Handle != o.Handle || v.NrVCPUs != o.NrVCPUs || len(v.VCPUs) != len(o.VCPUs) ||
		len(v.Donated) != len(o.Donated) {
		return false
	}
	for i := range v.VCPUs {
		if !v.VCPUs[i].Equal(o.VCPUs[i]) {
			return false
		}
	}
	for i := range v.Donated {
		if v.Donated[i] != o.Donated[i] {
			return false
		}
	}
	return true
}

// VMs is the ghost of the VM table (the vms lock's component): the
// metadata of every live VM plus the reclaim set.
type VMs struct {
	Present bool
	Table   map[hyp.Handle]*VMInfo
	Reclaim PageSet
}

// Clone returns a copy whose table and reclaim set may be changed
// independently. The VMInfos themselves are shared: they are
// immutable (see VMInfo).
func (v VMs) Clone() VMs {
	out := VMs{Present: v.Present, Reclaim: v.Reclaim.Clone()}
	if v.Table != nil {
		out.Table = maps.Clone(v.Table)
	}
	return out
}

// Equal reports structural equality of present VM tables.
func (v VMs) Equal(o VMs) bool {
	if len(v.Table) != len(o.Table) || !v.Reclaim.Equal(o.Reclaim) {
		return false
	}
	for h, vm := range v.Table {
		ovm, ok := o.Table[h]
		if !ok || !vm.Equal(ovm) {
			return false
		}
	}
	return true
}

// GuestPgt is the ghost of one VM's stage 2 (its own lock's
// component).
type GuestPgt struct {
	Present bool
	PGT     AbstractPgtable
}

// CPULocal is the ghost of one physical CPU's thread-local state: the
// saved host and guest register contexts, the hypervisor's per-CPU
// data, and — while a vCPU is loaded — the loaded vCPU's memcache,
// whose ownership the load transferred to this CPU (paper §3.1,
// "locals").
type CPULocal struct {
	Present   bool
	HostRegs  arch.Regs
	GuestRegs arch.Regs
	PerCPU    hyp.PerCPU
	LoadedMC  []arch.PFN
}

// Equal reports structural equality.
func (c CPULocal) Equal(o CPULocal) bool {
	if c.HostRegs != o.HostRegs || c.GuestRegs != o.GuestRegs || c.PerCPU != o.PerCPU ||
		len(c.LoadedMC) != len(o.LoadedMC) {
		return false
	}
	for i := range c.LoadedMC {
		if c.LoadedMC[i] != o.LoadedMC[i] {
			return false
		}
	}
	return true
}

// cloneLocal deep-copies a CPULocal.
func cloneLocal(l CPULocal) CPULocal {
	l.LoadedMC = append([]arch.PFN(nil), l.LoadedMC...)
	return l
}

// Globals is the ghost copy of the hypervisor's boot-time constants.
// The specification could read them from the concrete state, but
// keeping copies preserves the implementation/specification hygiene
// split (paper §3.1).
type Globals struct {
	Present bool
	hyp.Globals
}

// State is the reified ghost state (the paper's ghost_state): one
// member per lock-protected component, each an option whose Present
// flag says whether the corresponding lock was held during the
// recorded window, plus the per-CPU locals.
type State struct {
	Pkvm    Pkvm
	Host    Host
	VMs     VMs
	Guests  map[hyp.Handle]*GuestPgt
	Globals Globals
	Locals  map[int]*CPULocal
}

// NewState returns an empty (all-absent) state.
func NewState() *State {
	return &State{
		Guests: make(map[hyp.Handle]*GuestPgt),
		Locals: make(map[int]*CPULocal),
	}
}

// reset empties s for reuse, keeping its maps' storage.
func (s *State) reset() {
	guests, locals := s.Guests, s.Locals
	clear(guests)
	clear(locals)
	*s = State{Guests: guests, Locals: locals}
}

// Clone returns a copy that can be changed independently of s: a deep
// copy, except that the immutable VMInfos stay shared.
func (s *State) Clone() *State {
	out := &State{
		Pkvm:    Pkvm{Present: s.Pkvm.Present, PGT: s.Pkvm.PGT.Clone()},
		Host:    Host{Present: s.Host.Present, Annot: s.Host.Annot.Clone(), Shared: s.Host.Shared.Clone()},
		VMs:     s.VMs.Clone(),
		Globals: s.Globals,
		Guests:  make(map[hyp.Handle]*GuestPgt, len(s.Guests)),
		Locals:  make(map[int]*CPULocal, len(s.Locals)),
	}
	for h, g := range s.Guests {
		out.Guests[h] = &GuestPgt{Present: g.Present, PGT: g.PGT.Clone()}
	}
	for c, l := range s.Locals {
		lc := cloneLocal(*l)
		out.Locals[c] = &lc
	}
	return out
}

// guest returns the guest entry for h, creating it absent.
func (s *State) guest(h hyp.Handle) *GuestPgt {
	g := s.Guests[h]
	if g == nil {
		g = &GuestPgt{}
		s.Guests[h] = g
	}
	return g
}

// local returns the locals entry for cpu, creating it absent.
func (s *State) local(cpu int) *CPULocal {
	l := s.Locals[cpu]
	if l == nil {
		l = &CPULocal{}
		s.Locals[cpu] = l
	}
	return l
}

// CopyPkvm copies the pkvm component from src — the specification
// functions' copy_abstraction_pkvm.
func (s *State) CopyPkvm(src *State) {
	s.Pkvm = Pkvm{Present: src.Pkvm.Present, PGT: src.Pkvm.PGT.Clone()}
}

// CopyHost copies the host component from src.
func (s *State) CopyHost(src *State) {
	s.Host = Host{Present: src.Host.Present, Annot: src.Host.Annot.Clone(), Shared: src.Host.Shared.Clone()}
}

// CopyVMs copies the VM-table component from src. The VMInfos stay
// shared with src; a specification function that changes one goes
// through writableVM.
func (s *State) CopyVMs(src *State) { s.VMs = src.VMs.Clone() }

// writableVM returns the VM-table entry for h as a private clone that
// the caller may change, first replacing the shared entry with it. The
// entry must exist.
func (s *State) writableVM(h hyp.Handle) *VMInfo {
	vm := s.VMs.Table[h].Clone()
	s.VMs.Table[h] = vm
	return vm
}

// CopyGuest copies one guest stage 2 component from src.
func (s *State) CopyGuest(src *State, h hyp.Handle) {
	if g, ok := src.Guests[h]; ok {
		s.Guests[h] = &GuestPgt{Present: g.Present, PGT: g.PGT.Clone()}
	}
}

// CopyLocal copies one CPU's locals from src.
func (s *State) CopyLocal(src *State, cpu int) {
	if l, ok := src.Locals[cpu]; ok {
		lc := cloneLocal(*l)
		s.Locals[cpu] = &lc
	}
}

// ReadGPR reads a host general-purpose register from the recorded
// locals — the specification functions' ghost_read_gpr.
func (s *State) ReadGPR(cpu, reg int) uint64 {
	return s.local(cpu).HostRegs[reg]
}

// WriteGPR writes a host register in the expected post-state — the
// specification functions' ghost_write_gpr.
func (s *State) WriteGPR(cpu, reg int, v uint64) {
	s.local(cpu).HostRegs[reg] = v
}
