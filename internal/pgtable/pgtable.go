// Package pgtable is the hypervisor's generic page-table machinery,
// modelled on the walker shared between KVM and pKVM: a table handle,
// a visitor-callback Walk used for checks (the paper's
// kvm_pgtable_walk with __check_page_state_visitor etc.), and the
// mutation operations — map, unmap, ownership annotation — built with
// block mappings, block splitting, and annotation replication.
//
// The ghost specification never uses this package to read tables: its
// abstraction functions interpret raw descriptors via package arch,
// preserving the paper's hygiene split between implementation and
// specification.
package pgtable

import (
	"errors"
	"fmt"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/arch"
	"ghostspec/internal/telemetry/trace"
)

// spanMutate covers one top-level mutation walk; the span does not
// distinguish map/unmap/annotate — on the timeline what matters is
// pgtable time as a phase.
var spanMutate = trace.NewName("pgtable.mutate")

// Sentinel errors, mirroring the kernel's errno discipline.
var (
	// ErrNoMem reports table-page allocation failure; the loose
	// specification permits most hypercalls to fail with it.
	ErrNoMem = errors.New("pgtable: out of table memory")
	// ErrExists reports a conflicting existing entry when mapping
	// without force.
	ErrExists = errors.New("pgtable: mapping already exists")
	// ErrRange reports an input range outside the table's input space
	// or not page-aligned.
	ErrRange = errors.New("pgtable: bad input range")
)

// Allocator supplies zeroable table pages. The host stage 2 and hyp
// stage 1 draw from the hypervisor's pool; guest stage 2 tables draw
// from the running vCPU's memcache.
type Allocator interface {
	// AllocTablePage returns a frame for use as a table page, or
	// false if the allocator is exhausted.
	AllocTablePage() (arch.PFN, bool)
	// FreeTablePage returns a table frame to the allocator.
	FreeTablePage(arch.PFN)
}

// Table is a live translation table: a root frame plus its growth policy.
type Table struct {
	Name  string
	Mem   *arch.Memory
	Stage arch.Stage
	Alloc Allocator

	// MaxBlockLevel is the coarsest level at which Map may install a
	// block descriptor: 1 permits 1GB and 2MB blocks, 2 permits only
	// 2MB, 3 forces page granularity.
	MaxBlockLevel int

	// root is the table's root frame; mutated only under the owning
	// component's lock (which lock that is depends on whose table this
	// handle serves — host, hyp or a guest).
	//ghost:guards lock=owner
	root arch.PhysAddr

	// tlbi, when set, receives one TLB-invalidate notification per
	// break-before-make sequence; see SetTLBI.
	tlbi func(p *preempt.Point, ia, size uint64)

	// tlb, when set, is the system's software TLB, consulted by
	// GetLeaf as a generation-verified walk cache; see SetTLB.
	tlb     *arch.TLB
	tlbVMID arch.VMID

	// tracer, when attached, receives one span per top-level mutation
	// walk (Map/Unmap/Annotate) on lane; see SetTracer.
	tracer *trace.Tracer
	lane   int
	dom    *preempt.Domain // see SetDomain
}

// SetTLBI installs the TLB-invalidate callback. The mutation paths
// call it once per broken entry, between unmaking the old descriptor
// and making its replacement visible (break-before-make), covering the
// broken entry's whole input range. The hypervisor bridges it to the
// system TLB tagged with the component's VMID; because mutations run
// under the owning component's lock, the callback fires under that
// lock too. p is the mutation's TLBI point, for the callback to hand to
// the TLB invalidation it issues (or not, if it skips the TLBI).
func (t *Table) SetTLBI(fn func(p *preempt.Point, ia, size uint64)) { t.tlbi = fn }

// notifyTLBI reports one break-before-make invalidation at point p.
func (t *Table) notifyTLBI(p *preempt.Point, ia, size uint64) {
	if t.tlbi != nil {
		t.tlbi(p, ia, size)
	}
}

// SetTLB attaches the system's software TLB so GetLeaf can serve
// lookups from still-fresh cached walks under the component's VMID
// tag. Unlike the hardware hit path, GetLeaf's hits are revalidated
// against the per-frame write generations before use: the hypervisor
// reads its own tables with ordinary loads, so a software lookup must
// never observe a stale descriptor even when a TLBI was (buggily)
// skipped.
func (t *Table) SetTLB(tlb *arch.TLB, vmid arch.VMID) {
	t.tlb, t.tlbVMID = tlb, vmid
}

// SetTracer attaches a span tracer covering the top-level mutation
// walks. Install once at construction, like the other subscribers.
func (t *Table) SetTracer(tr *trace.Tracer, lane int) {
	t.tracer, t.lane = tr, lane
}

// New allocates a root table page and returns the handle.
func New(name string, m *arch.Memory, stage arch.Stage, alloc Allocator, maxBlockLevel int) (*Table, error) {
	t := &Table{Name: name, Mem: m, Stage: stage, Alloc: alloc, MaxBlockLevel: maxBlockLevel}
	pfn, ok := alloc.AllocTablePage()
	if !ok {
		return nil, fmt.Errorf("%s root: %w", name, ErrNoMem)
	}
	m.ZeroPage(pfn.Phys())
	t.root = pfn.Phys()
	return t, nil
}

// Attach wraps an existing table root in a handle without allocating:
// used by tooling (and fault-injection tests) that needs to operate on
// a table owned elsewhere.
func Attach(name string, m *arch.Memory, stage arch.Stage, alloc Allocator, maxBlockLevel int, root arch.PhysAddr) *Table {
	return &Table{Name: name, Mem: m, Stage: stage, Alloc: alloc, MaxBlockLevel: maxBlockLevel, root: root}
}

// Root returns the physical address of the root table page — what the
// hypervisor installs in TTBR/VTTBR on context switch. The root is
// written once at construction (and zeroed by Destroy), so the bare
// read is safe without the owner's lock.
//
//ghostlint:ignore guardcheck root is construction-stable; reading one word races with nothing
func (t *Table) Root() arch.PhysAddr { return t.root }

func checkRange(ia, size uint64) error {
	if size == 0 || !arch.PageAligned(ia) || !arch.PageAligned(size) ||
		!arch.CanonicalIA(ia) || ia+size < ia || !arch.CanonicalIA(ia+size-1) {
		return ErrRange
	}
	return nil
}

// entryBase returns the start of the input range covered by the entry
// containing ia at the given level.
func entryBase(ia uint64, level int) uint64 {
	return ia &^ (arch.LevelSize(level) - 1)
}

// ---------------------------------------------------------------------
// Generic visitor walk (the kvm_pgtable_walk analogue).

// WalkFlags selects which entries a Walk visits.
type WalkFlags uint8

const (
	// VisitLeaf visits block and page descriptors, and invalid or
	// annotated entries at the deepest level reached within the range.
	VisitLeaf WalkFlags = 1 << iota
	// VisitTablePre visits table descriptors before descending.
	VisitTablePre
	// VisitTablePost visits table descriptors after ascending.
	VisitTablePost
)

// VisitCtx describes one visited entry. The callback may replace the
// descriptor with Replace, as KVM's walker callbacks install or adjust
// entries in place. The walker reuses the context for the next entry,
// so a callback must not keep it past its return.
type VisitCtx struct {
	// IA is the input address of the start of this entry's coverage,
	// clamped to the walked range.
	IA uint64
	// Level is the walk level of the entry.
	Level int
	// PTE is the descriptor value as read.
	PTE arch.PTE
	// NrPages is the number of 4KB pages of the entry's coverage that
	// intersect the walked range.
	NrPages uint64

	table arch.PhysAddr
	index int
	mem   *arch.Memory
}

// Replace writes a new descriptor value over the visited entry.
func (c *VisitCtx) Replace(p arch.PTE) {
	c.mem.WritePTE(c.table, c.index, p)
	c.PTE = p
}

// Visitor is the callback bundle for Walk.
type Visitor struct {
	Flags WalkFlags
	// Fn is invoked for each selected entry; a non-nil error aborts
	// the walk and is returned from Walk.
	Fn func(ctx *VisitCtx) error
}

// Walk traverses the table over [ia, ia+size), invoking the visitor
// according to its flags. It follows the architecture's table-walk
// order and visits entries in ascending input-address order.
//
//ghost:requires lock=owner
func (t *Table) Walk(ia, size uint64, v *Visitor) error {
	if err := checkRange(ia, size); err != nil {
		return err
	}
	return t.walkLevel(t.root, arch.StartLevel, ia, ia+size, v)
}

// The walker's visitor-step points: walkLevel's three v.Fn
// dispatches, in source order.
var (
	stepPre  = preempt.At(preempt.KindVisitorStep, "", "walkLevel", 0)
	stepPost = preempt.At(preempt.KindVisitorStep, "", "walkLevel", 1)
	stepLeaf = preempt.At(preempt.KindVisitorStep, "", "walkLevel", 2)
)

// step crosses visitor-step point p and passes ctx through. It is
// called in the argument of a v.Fn dispatch, so the crossing happens
// on the line p names, before the callback runs.
func (t *Table) step(p *preempt.Point, ctx *VisitCtx) *VisitCtx {
	t.dom.Fire(p)
	return ctx
}

func (t *Table) walkLevel(table arch.PhysAddr, level int, ia, end uint64, v *Visitor) error {
	// One context per level, reset for each entry: no visitor keeps
	// ctx past its call, and a table entry's post-visit still finds its
	// own context because the descent below uses the next frame's.
	ctx := new(VisitCtx)
	for ia < end {
		idx := arch.IndexAt(ia, level)
		base := entryBase(ia, level)
		entryEnd := base + arch.LevelSize(level)
		chunkEnd := min(end, entryEnd)
		pte := t.Mem.ReadPTE(table, idx)
		*ctx = VisitCtx{
			IA:      ia,
			Level:   level,
			PTE:     pte,
			NrPages: (chunkEnd - ia) >> arch.PageShift,
			table:   table,
			index:   idx,
			mem:     t.Mem,
		}
		if pte.Kind(level) == arch.EKTable {
			if v.Flags&VisitTablePre != 0 {
				if err := v.Fn(t.step(stepPre, ctx)); err != nil {
					return err
				}
			}
			// The callback may have replaced the table with a leaf;
			// only descend if it is still a table.
			if ctx.PTE.Kind(level) == arch.EKTable {
				if err := t.walkLevel(ctx.PTE.TableAddr(), level+1, ia, chunkEnd, v); err != nil {
					return err
				}
				if v.Flags&VisitTablePost != 0 {
					if err := v.Fn(t.step(stepPost, ctx)); err != nil {
						return err
					}
				}
			}
		} else if v.Flags&VisitLeaf != 0 {
			if err := v.Fn(t.step(stepLeaf, ctx)); err != nil {
				return err
			}
		}
		ia = chunkEnd
	}
	return nil
}

// ---------------------------------------------------------------------
// Lookup.

// GetLeaf walks to the entry covering ia and returns the terminal
// descriptor and its level (the entry is a block, page, invalid, or
// annotated descriptor — never a table).
//
//ghost:requires lock=owner
func (t *Table) GetLeaf(ia uint64) (arch.PTE, int) {
	pte, level, ok := t.tlb.LookupLeaf(t.root, t.Stage, t.tlbVMID, ia)
	if !ok {
		pte, level = arch.WalkLeaf(t.Mem, t.root, ia)
	}
	return pte, level
}

// ---------------------------------------------------------------------
// Mutation: Map / Unmap / Annotate with block split.

// Map installs a mapping from [ia, ia+size) to [pa, pa+size) with the
// given attributes. When force is false, any existing valid or
// annotated entry in the range fails with ErrExists. When force is
// true, existing entries — including annotations and whole subtrees —
// are replaced, and partially covered blocks or annotations are split.
// Block descriptors are used where alignment permits, at levels no
// coarser than MaxBlockLevel.
//
//ghost:requires lock=owner
func (t *Table) Map(ia, size uint64, pa arch.PhysAddr, attrs arch.Attrs, force bool) error {
	if err := checkRange(ia, size); err != nil {
		return err
	}
	if !arch.PageAligned(uint64(pa)) {
		return ErrRange
	}
	sp := t.tracer.Begin(t.lane, spanMutate)
	defer sp.End()
	return t.mutateRange(t.root, arch.StartLevel, ia, ia+size, mutateOpts{force: force}, func(level int, entryIA uint64) arch.PTE {
		return arch.MakeLeaf(level, pa+arch.PhysAddr(entryIA-ia), attrs)
	}, func(level int, entryIA uint64) bool {
		// A leaf fits here if blocks are allowed at this level and the
		// output address is co-aligned with the input.
		if level < t.MaxBlockLevel {
			return false
		}
		return (uint64(pa)+(entryIA-ia))&(arch.LevelSize(level)-1) == 0
	})
}

// Unmap clears every entry over [ia, ia+size) to the plain invalid
// descriptor, splitting partially covered blocks and annotations. It
// never fails on already-invalid entries: unmapping nothing is a
// no-op, matching the kernel walker.
//
//ghost:requires lock=owner
func (t *Table) Unmap(ia, size uint64) error {
	if err := checkRange(ia, size); err != nil {
		return err
	}
	sp := t.tracer.Begin(t.lane, spanMutate)
	defer sp.End()
	return t.mutateRange(t.root, arch.StartLevel, ia, ia+size, mutateOpts{force: true, skipInvalid: true},
		func(int, uint64) arch.PTE { return 0 },
		func(int, uint64) bool { return true })
}

// Annotate overwrites every entry over [ia, ia+size) with an
// ownership annotation for owner (or the plain invalid descriptor when
// owner is zero), pKVM's set_owner walk. Existing mappings in the
// range are destroyed; partially covered blocks are split.
//
//ghost:requires lock=owner
func (t *Table) Annotate(ia, size uint64, owner uint8) error {
	if err := checkRange(ia, size); err != nil {
		return err
	}
	sp := t.tracer.Begin(t.lane, spanMutate)
	defer sp.End()
	return t.mutateRange(t.root, arch.StartLevel, ia, ia+size, mutateOpts{force: true, skipInvalid: owner == 0},
		func(int, uint64) arch.PTE {
			if owner == 0 {
				return 0
			}
			return arch.MakeAnnotation(owner)
		},
		func(int, uint64) bool { return true })
}

// mutateOpts controls mutateRange: force permits replacing and
// splitting existing valid or annotated entries; skipInvalid elides
// descending into plain invalid entries when the mutation would only
// write invalid descriptors beneath them (unmap of nothing must not
// grow the tree).
type mutateOpts struct {
	force       bool
	skipInvalid bool
}

// mutateRange's break-before-make TLBIs: replacing a live entry whole,
// and splitting a live block.
var (
	tlbiReplace = preempt.At(preempt.KindTLBI, "", "mutateRange", 0)
	tlbiSplit   = preempt.At(preempt.KindTLBI, "", "mutateRange", 1)
)

// mutateRange rewrites all entries covering [ia, end). makeEntry
// builds the replacement descriptor for a whole entry at a level;
// leafOK reports whether a whole-entry replacement may be installed at
// that level (otherwise the walk descends). Partially covered leaves
// are split when opts.force is set and fail with ErrExists otherwise —
// except plain invalid entries, which are always split silently.
func (t *Table) mutateRange(table arch.PhysAddr, level int, ia, end uint64, opts mutateOpts,
	makeEntry func(level int, entryIA uint64) arch.PTE,
	leafOK func(level int, entryIA uint64) bool) error {
	for ia < end {
		idx := arch.IndexAt(ia, level)
		base := entryBase(ia, level)
		entryEnd := base + arch.LevelSize(level)
		chunkEnd := min(end, entryEnd)
		pte := t.Mem.ReadPTE(table, idx)
		kind := pte.Kind(level)

		whole := ia == base && chunkEnd == entryEnd
		if whole && (level == arch.LastLevel || leafOK(level, ia)) {
			// Replace the entire entry.
			switch kind {
			case arch.EKInvalid:
				// Always replaceable: invalid encodings never enter the
				// TLB, so no maintenance either.
			case arch.EKAnnotated, arch.EKBlock, arch.EKPage:
				if !opts.force {
					return fmt.Errorf("%s ia %#x level %d (%s): %w", t.Name, ia, level, kind, ErrExists)
				}
			case arch.EKTable:
				if !opts.force {
					return fmt.Errorf("%s ia %#x level %d (subtree): %w", t.Name, ia, level, ErrExists)
				}
			case arch.EKReserved:
				return fmt.Errorf("%s ia %#x level %d: reserved descriptor %#x", t.Name, ia, level, uint64(pte))
			}
			if kind == arch.EKBlock || kind == arch.EKPage || kind == arch.EKTable {
				// Break-before-make: a live translation (or a subtree
				// that may contain some) is first broken to invalid and
				// invalidated from the TLB; only then may its table
				// pages be reused and the replacement made visible.
				t.Mem.WritePTE(table, idx, 0)
				t.notifyTLBI(tlbiReplace, ia, arch.LevelSize(level))
				if kind == arch.EKTable {
					t.freeSubtree(pte, level)
				}
			}
			t.Mem.WritePTE(table, idx, makeEntry(level, ia))
			ia = chunkEnd
			continue
		}

		// Partial coverage (or a level too coarse for a leaf here):
		// descend, creating or splitting as needed.
		var next arch.PhysAddr
		switch kind {
		case arch.EKTable:
			next = pte.TableAddr()
		case arch.EKInvalid:
			if opts.skipInvalid {
				ia = chunkEnd
				continue
			}
			np, err := t.newTable(table, idx, 0, level)
			if err != nil {
				return err
			}
			next = np
		case arch.EKAnnotated, arch.EKBlock, arch.EKPage:
			if !opts.force {
				return fmt.Errorf("%s ia %#x level %d (split %s): %w", t.Name, ia, level, kind, ErrExists)
			}
			if kind != arch.EKAnnotated {
				// Break-before-make across the split: the live block
				// leaves the table and the TLB before the replicated
				// finer-grained copy is built and installed.
				t.Mem.WritePTE(table, idx, 0)
				t.notifyTLBI(tlbiSplit, base, arch.LevelSize(level))
			}
			np, err := t.newTable(table, idx, pte, level)
			if err != nil {
				return err
			}
			next = np
		case arch.EKReserved:
			return fmt.Errorf("%s ia %#x level %d: reserved descriptor %#x", t.Name, ia, level, uint64(pte))
		}
		if err := t.mutateRange(next, level+1, ia, chunkEnd, opts, makeEntry, leafOK); err != nil {
			return err
		}
		// Invalidating mutations reclaim child tables they emptied,
		// as the kernel walker's TABLE_POST visitors do: without
		// this, map/unmap churn leaks table pages.
		if opts.skipInvalid && tableEmpty(t.Mem, next) {
			t.Mem.WritePTE(table, idx, 0)
			t.Alloc.FreeTablePage(arch.PhysToPFN(next))
		}
		ia = chunkEnd
	}
	return nil
}

// tableEmpty reports whether every descriptor of the table page at pa
// is plain invalid.
func tableEmpty(m *arch.Memory, pa arch.PhysAddr) bool {
	for i := 0; i < arch.PTEsPerTable; i++ {
		if m.ReadPTE(pa, i) != 0 {
			return false
		}
	}
	return true
}

// newTable allocates a next-level table under table[idx], seeding it
// with the split of old: a block is replicated as 512 finer leaves, an
// annotation as 512 copies, and a plain invalid entry as zeroes.
func (t *Table) newTable(table arch.PhysAddr, idx int, old arch.PTE, level int) (arch.PhysAddr, error) {
	pfn, ok := t.Alloc.AllocTablePage()
	if !ok {
		return 0, fmt.Errorf("%s level %d: %w", t.Name, level+1, ErrNoMem)
	}
	pa := pfn.Phys()
	t.Mem.ZeroPage(pa)
	childLevel := level + 1
	switch old.Kind(level) {
	case arch.EKBlock:
		attrs := old.Attrs()
		oa := old.OutputAddr(level)
		step := arch.PhysAddr(arch.LevelSize(childLevel))
		for i := 0; i < arch.PTEsPerTable; i++ {
			t.Mem.WritePTE(pa, i, arch.MakeLeaf(childLevel, oa+arch.PhysAddr(i)*step, attrs))
		}
	case arch.EKAnnotated:
		for i := 0; i < arch.PTEsPerTable; i++ {
			t.Mem.WritePTE(pa, i, old)
		}
	}
	t.Mem.WritePTE(table, idx, arch.MakeTable(pa))
	return pa, nil
}

// freeSubtree returns all table pages of the subtree rooted at a table
// descriptor to the allocator.
func (t *Table) freeSubtree(pte arch.PTE, level int) {
	if pte.Kind(level) != arch.EKTable {
		return
	}
	pa := pte.TableAddr()
	for i := 0; i < arch.PTEsPerTable; i++ {
		t.freeSubtree(t.Mem.ReadPTE(pa, i), level+1)
	}
	t.Alloc.FreeTablePage(arch.PhysToPFN(pa))
}

// Destroy frees every table page including the root, leaving the
// handle unusable. Used at VM teardown.
//
//ghost:requires lock=owner
func (t *Table) Destroy() {
	t.freeSubtree(arch.MakeTable(t.root), arch.StartLevel-1)
	t.root = 0
}

// TablePages returns the physical frames currently used by the
// table's own tree (root and interior pages) — the footprint the
// ghost separation check monitors. Callers on a live table hold the
// owner's lock; the other callers run on a quiescent system.
//
//ghostlint:ignore guardcheck quiescent-or-locked callers per the contract above
func (t *Table) TablePages() []arch.PFN {
	var out []arch.PFN
	var rec func(pa arch.PhysAddr, level int)
	rec = func(pa arch.PhysAddr, level int) {
		out = append(out, arch.PhysToPFN(pa))
		if level == arch.LastLevel {
			return
		}
		for i := 0; i < arch.PTEsPerTable; i++ {
			pte := t.Mem.ReadPTE(pa, i)
			if pte.Kind(level) == arch.EKTable {
				rec(pte.TableAddr(), level+1)
			}
		}
	}
	if t.root != 0 {
		rec(t.root, arch.StartLevel)
	}
	return out
}

// SetDomain attaches the table to its system's preemption domain:
// while a scheduler is bound to it, every visitor callback of Walk is
// a visitor-step point. Install once at construction.
func (t *Table) SetDomain(d *preempt.Domain) { t.dom = d }
