package bugdemo

import (
	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/arch"
)

var missingTLBIRemapTLBI = preempt.At(preempt.KindTLBI, "", "MissingTLBIRemap", 0)

// MissingTLBIRemap is a deliberately seeded violation of the Armv8
// break-before-make discipline documented in docs/ANALYSIS.md: it
// breaks a page-table entry (stores the invalid descriptor) and
// installs the replacement without the intervening TLB invalidation.
// It is the bbmcheck twin of LockOrderInversion — a permanent
// regression demo proving the static checker still fires:
//
//   - ghostlint's bbmcheck flags the second WritePTE (make after
//     break with no TLBI); the suppression below hides it in normal
//     runs, and `ghostlint -strict ./internal/bugdemo` (run in CI)
//     proves the analyzer still sees it.
//   - the same stale-translation window, produced dynamically by
//     BugUnshareSkipTLBI, is what the runtime oracle reports as
//     FailStaleTLB; this is its static shape.
//
// It must never be called from real hypercall or oracle code.
func MissingTLBIRemap(m *arch.Memory, tlb *arch.TLB, table arch.PhysAddr, idx int, newPA arch.PhysAddr) {
	m.WritePTE(table, idx, 0)                                                  // break: unmake the old descriptor
	m.WritePTE(table, idx, arch.MakeLeaf(arch.LastLevel, newPA, arch.Attrs{})) //ghostlint:ignore bbmcheck deliberately seeded missing-TLBI remap (make after break), kept as the bbmcheck regression demo
	// The invalidation arrives only after the new descriptor is live —
	// too late: a walk between the two stores caches the stale entry.
	tlb.InvalidateRange(missingTLBIRemapTLBI, 0, 0, arch.PageSize)
}
