// Package bbmcheck_bad is golden-file input for the bbmcheck
// analyzer: every line carrying a "want:bbmcheck" marker comment must
// be flagged, and no unmarked line may be — in particular the legal
// break→TLBI→make sequence and the plain unmap must stay clean.
package bbmcheck_bad

import "ghostspec/internal/arch"

// remapNoTLBI breaks an entry and re-makes it valid with no
// invalidation between the stores (rule B1).
func remapNoTLBI(m *arch.Memory, table arch.PhysAddr, pa arch.PhysAddr) {
	m.WritePTE(table, 3, 0)
	m.WritePTE(table, 3, arch.MakeLeaf(arch.LastLevel, pa, arch.Attrs{})) // want:bbmcheck
}

// overwriteInPlace replaces a valid descriptor without breaking it
// first (rule B2) — forbidden even with a TLBI, since a walk may
// cache either descriptor.
func overwriteInPlace(m *arch.Memory, tlb *arch.TLB, table arch.PhysAddr, pa arch.PhysAddr) {
	m.WritePTE(table, 4, arch.MakeLeaf(arch.LastLevel, pa, arch.Attrs{}))
	tlb.InvalidateRange(nil, 0, 0, arch.PageSize)
	m.WritePTE(table, 4, arch.MakeTable(pa)) // want:bbmcheck
}

// remapProper is the legal break→TLBI→make sequence.
func remapProper(m *arch.Memory, tlb *arch.TLB, table arch.PhysAddr, pa arch.PhysAddr) {
	m.WritePTE(table, 5, 0)
	tlb.InvalidateRange(nil, 0, 0, arch.PageSize)
	m.WritePTE(table, 5, arch.MakeLeaf(arch.LastLevel, pa, arch.Attrs{}))
}

// unmapOnly leaves the entry invalid: an unmap, not a violation.
func unmapOnly(m *arch.Memory, table arch.PhysAddr) {
	m.WritePTE(table, 6, 0)
}

// branchBreak: the pending break survives the join (losing it would
// hide the missing TLBI behind the branch), so the make after the if
// is still flagged.
func branchBreak(m *arch.Memory, table arch.PhysAddr, pa arch.PhysAddr, cond bool) {
	if cond {
		m.WritePTE(table, 7, 0)
	}
	m.WritePTE(table, 7, arch.MakeLeaf(arch.LastLevel, pa, arch.Attrs{})) // want:bbmcheck
}

// branchTLBI invalidates on both arms before the make: clean.
func branchTLBI(m *arch.Memory, tlb *arch.TLB, table arch.PhysAddr, pa arch.PhysAddr, wide bool) {
	m.WritePTE(table, 8, 0)
	if wide {
		tlb.InvalidateAll(nil)
	} else {
		tlb.InvalidateRange(nil, 0, 0, arch.PageSize)
	}
	m.WritePTE(table, 8, arch.MakeLeaf(arch.LastLevel, pa, arch.Attrs{}))
}

// deferredTLBI runs the invalidation at return — after the make, too
// late to close the window.
func deferredTLBI(m *arch.Memory, tlb *arch.TLB, table arch.PhysAddr, pa arch.PhysAddr) {
	defer tlb.InvalidateRange(nil, 0, 0, arch.PageSize)
	m.WritePTE(table, 9, 0)
	m.WritePTE(table, 9, arch.MakeLeaf(arch.LastLevel, pa, arch.Attrs{})) // want:bbmcheck
}
