package preempt

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// Reserved pseudo-point IDs. The deterministic scheduler records
// decisions at places that are not source positions — the boundary
// between two trace ops, and the re-grant after a vCPU blocked on a
// contended spinlock. They get fixed small IDs far below any FNV-1a
// hash; init-time indexing panics if a generated point ever collides.
const (
	// PointBoundary marks an op-boundary decision: the vCPU finished
	// one trace op and parks before starting the next (also the
	// stream-start park before its first op).
	PointBoundary uint64 = 1
	// PointLockWait marks a vCPU resuming after it blocked on a
	// spinlock another vCPU held.
	PointLockWait uint64 = 2
)

// Known reports whether id is a table point or a reserved
// pseudo-point — the validity check for replayed schedules.
func Known(id uint64) bool {
	if id == PointBoundary || id == PointLockWait {
		return true
	}
	_, ok := ByID(id)
	return ok
}

// frameKey locates a table point from a runtime call frame: frames
// carry absolute file paths and no column, so the index is keyed by
// base name + line + kind and each candidate is verified against the
// frame's full path suffix.
type frameKey struct {
	base string
	line int
	kind Kind
}

var (
	frameOnce  sync.Once
	frameIndex map[frameKey]*Point
)

func buildFrameIndex() {
	frameIndex = make(map[frameKey]*Point, len(generatedPoints))
	for i := range generatedPoints {
		p := &generatedPoints[i]
		if p.ID == PointBoundary || p.ID == PointLockWait {
			panic(fmt.Sprintf("preempt: generated point %s:%d collides with reserved pseudo-point ID %d",
				p.File, p.Line, p.ID))
		}
		k := frameKey{base: pathBase(p.File), line: p.Line, kind: p.Kind}
		// Two same-kind points on one line (rare — a multi-call line)
		// resolve to the leftmost deterministically.
		if prev, ok := frameIndex[k]; !ok || p.Col < prev.Col {
			frameIndex[k] = p
		}
	}
}

// FireCaller reports to d's bound scheduler a crossing of the table
// point of the given kind found on the calling stack. The
// instrumentation primitives (spinlock Lock/Unlock, the arch TLB
// invalidations, the pgtable visitor dispatch) call it on the domain
// of the system they belong to: the event's table identity is the
// *call site* — possibly several frames up, through the hypervisor's
// lock helpers — and resolving it from the stack keeps the primitives'
// own source files out of the table's content addressing.
//
// Unbound (or nil) this is one atomic load. Bound, it is one stack
// unwind plus one memo probe (see resolve).
func (d *Domain) FireCaller(kind Kind) {
	s := d.Bound()
	if s == nil {
		return
	}
	var pcs [32]uintptr
	n := runtime.Callers(2, pcs[:])
	if p := resolve(kind, pcs[:n]); p != nil {
		s.Crossing(*p)
	}
}

// memoKey is a resolution's memo slot: the point kind and an FNV-1a
// hash of the call stack's PCs. Entries sharing a slot are told apart
// by their stored PCs.
type memoKey struct {
	kind Kind
	hash uint64
}

type memoEntry struct {
	pcs []uintptr
	p   *Point // nil: no table point of the kind on this stack
}

// memo is read-mostly: a program has a bounded set of call stacks
// that reach a preemption point, each resolved once.
var (
	memoMu sync.RWMutex
	memo   = map[memoKey][]memoEntry{}
)

// resolve returns the table point of the given kind on the call stack
// pcs, or nil. The same PCs always symbolize to the same frames, so a
// stack's resolution is memoized by its PCs; a miss symbolizes it with
// resolveFrames.
func resolve(kind Kind, pcs []uintptr) *Point {
	h := uint64(14695981039346656037)
	for _, pc := range pcs {
		h = (h ^ uint64(pc)) * 1099511628211
	}
	k := memoKey{kind, h}
	memoMu.RLock()
	for _, e := range memo[k] {
		if slices.Equal(e.pcs, pcs) {
			memoMu.RUnlock()
			return e.p
		}
	}
	memoMu.RUnlock()
	own := make([]uintptr, len(pcs)) // the caller's array stays on its stack
	copy(own, pcs)
	p := resolveFrames(kind, own)
	memoMu.Lock()
	memo[k] = append(memo[k], memoEntry{pcs: own, p: p})
	memoMu.Unlock()
	return p
}

// resolveFrames symbolizes pcs and returns the matching table point.
// Of all matching frames the outermost wins: for `hv.lockHost(cpu)`
// both the helper's internal `Lock()` line and the hypercall's call
// line are table points, and the caller-specific one names the window
// a schedule actually distinguishes.
func resolveFrames(kind Kind, pcs []uintptr) *Point {
	frameOnce.Do(buildFrameIndex)
	frames := runtime.CallersFrames(pcs)
	var match *Point
	for {
		f, more := frames.Next()
		if f.Line > 0 {
			if p, ok := frameIndex[frameKey{base: pathBase(f.File), line: f.Line, kind: kind}]; ok &&
				strings.HasSuffix(f.File, "/"+p.File) {
				match = p // keep the latest: outermost matching frame
			}
		}
		if !more {
			return match
		}
	}
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
